//! Indexed discrete-event queue: two lanes of flat 4-ary indexed min-heaps
//! with an adaptive small-queue regime and O(log n) in-place cancellation
//! — the hot-path replacement for a lazy-tombstone binary heap (kept as the
//! reference queue in `crates/sim/tests/properties.rs`).
//!
//! The lazy-tombstone queue pays a hash-set membership probe on **every**
//! `peek`/`pop` (and keeps dead entries in the heap until they surface).
//! This queue instead maintains a slot → position index, so cancellation
//! removes the entry immediately and the pop path touches nothing but the
//! flat entry arrays — no tombstones, no `HashSet`, no per-operation
//! hashing.
//!
//! Events are filed on one of two lanes, each its own flat entry array:
//!
//! * the **clock lane** ([`IndexedEventQueue::schedule`],
//!   [`IndexedEventQueue::schedule_at`]) for long-lived events — the disk
//!   failure clocks that pend for most of a mission;
//! * the **timer lane** ([`IndexedEventQueue::schedule_timer`]) for
//!   short-lived ones — service timers that are armed, cancelled and fired
//!   many times while the clocks wait.
//!
//! Both lanes share one clock, one schedule counter and one slot table, and
//! a pop takes the lane whose minimum comes first in the one `(time, seq)`
//! order, so the split never shows in what pops when: it only decides
//! which entries a timer's schedule, cancel or pop must sift past — a lane
//! of a few timers instead of a thousand disk clocks on a fleet.
//!
//! Two regimes, switched together on the total pending count of both
//! lanes:
//!
//! * **linear** (up to 32 pending events) — each lane's entries are
//!   unordered and its minimum's index is tracked incrementally, so
//!   `schedule` is O(1), peeking is O(1), and a pop is one `swap_remove`
//!   plus an O(n) rescan of a few cache-resident entries. This is the
//!   regime of per-array availability missions (a handful of disk clocks
//!   and service timers), where it beats any heap.
//! * **4-ary heap** — the first schedule that would exceed the threshold
//!   heapifies both lanes in place and the queue stays a heap until
//!   [`IndexedEventQueue::clear`]. Four children per node halve the depth
//!   of a binary heap and keep each sift level's child scan in one or two
//!   cache lines; this is the regime of fleet-scale simulations (thousands
//!   of concurrent disk clocks).
//!
//! Both regimes pop in exactly the same `(time, seq)` order, whichever
//! lane an event rides — see the ordering contract on
//! [`IndexedEventQueue`].

use crate::error::{Result, SimError};

/// Handle returned by [`IndexedEventQueue::schedule`] (or any other
/// schedule call, on either lane), usable to cancel the event in place.
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

/// One entry of a lane's flat array. `slot` points into the side table
/// that makes cancellation O(log n).
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
    /// unique across both lanes, so this is a total order with no equal
    /// keys.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        self.time < other.time || (self.time == other.time && self.seq < other.seq)
    }
}

/// Per-slot bookkeeping: the sequence number of the occupying event (the
/// handle-validity check is one equality test), its lane, and its current
/// position in that lane's entry array.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    pos: u32,
    lane: u32,
}

/// Sequence value stored for a slot that holds no live event; no handle
/// ever carries it (the schedule counter cannot reach `u64::MAX` in any
/// physically simulable run).
const FREE_SLOT: u64 = u64::MAX;

/// Heap arity of the large-queue regime.
const ARITY: usize = 4;

/// Largest pending-event count (both lanes together) served by the linear
/// regime; one more schedule heapifies. 32 entries keep the rescan-on-pop
/// inside a few cache lines while covering every per-array mission
/// comfortably.
const LINEAR_MAX: usize = 32;

/// `min_pos` sentinel for an empty lane.
const NO_MIN: u32 = u32::MAX;

/// Lane of `schedule` and `schedule_at`: long-lived clocks.
const CLOCK: usize = 0;

/// Lane of `schedule_timer`: short-lived timers.
const TIMER: usize = 1;

/// Cumulative traffic counters of an [`IndexedEventQueue`], maintained
/// unconditionally (plain integer adds, negligible next to any queue
/// operation) and surviving [`IndexedEventQueue::clear`] so one workspace
/// queue accounts for a whole run of missions. Every counter covers both
/// lanes, so which lane an event rides never changes a count.
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
    /// Events accepted by `schedule`/`schedule_at`/`schedule_timer`, plus
    /// expired draws.
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

/// One lane's entries: unordered with a tracked minimum in the linear
/// regime, a 4-ary heap in the heap regime. The regime flag lives on the
/// queue, which switches both lanes together.
#[derive(Debug)]
struct Lane<E> {
    entries: Vec<Entry<E>>,
    /// Index of the minimum entry in the linear regime ([`NO_MIN`] when
    /// empty); unused in the heap regime, where the minimum is the root.
    min_pos: u32,
}

impl<E> Lane<E> {
    fn new() -> Self {
        Lane {
            entries: Vec::new(),
            min_pos: NO_MIN,
        }
    }

    /// The lane's minimum entry, if any: the root of a heap, or the
    /// tracked minimum ([`NO_MIN`] is out of range when empty).
    #[inline]
    fn min(&self, is_heap: bool) -> Option<&Entry<E>> {
        self.entries
            .get(if is_heap { 0 } else { self.min_pos as usize })
    }

    /// Removes the entry at `pos` unfired (a cancel), restoring the
    /// regime's invariant: heap order, or the tracked minimum.
    fn cancel_at(&mut self, slots: &mut [Slot], pos: usize, is_heap: bool) {
        if is_heap {
            let last = self
                .entries
                .pop()
                .expect("indexed slot implies a live entry");
            if pos < self.entries.len() {
                self.entries[pos] = last;
                slots[self.entries[pos].slot as usize].pos = pos as u32;
                // The moved entry came from the bottom; it usually goes
                // further down, unless it now beats its parent.
                self.sift_up(slots, pos);
                self.sift_down(slots, pos);
            }
        } else {
            let was_last = self.entries.len() - 1;
            self.entries.swap_remove(pos);
            if pos < self.entries.len() {
                slots[self.entries[pos].slot as usize].pos = pos as u32;
            }
            if pos == self.min_pos as usize {
                self.min_pos = self.scan_min();
            } else if self.min_pos as usize == was_last {
                // The minimum was the entry moved into the hole.
                self.min_pos = pos as u32;
            }
        }
    }

    /// Removes and returns the lane's minimum; the caller guarantees the
    /// lane is not empty.
    fn pop_min(&mut self, slots: &mut [Slot], is_heap: bool) -> Entry<E> {
        if is_heap {
            let last = self
                .entries
                .pop()
                .expect("a lane minimum implies a live entry");
            if self.entries.is_empty() {
                return last;
            }
            let root = std::mem::replace(&mut self.entries[0], last);
            slots[self.entries[0].slot as usize].pos = 0;
            self.sift_down(slots, 0);
            root
        } else {
            let pos = self.min_pos as usize;
            let entry = self.entries.swap_remove(pos);
            if pos < self.entries.len() {
                slots[self.entries[pos].slot as usize].pos = pos as u32;
            }
            self.min_pos = self.scan_min();
            entry
        }
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

    /// Establishes the 4-ary heap order over the whole entry array.
    fn heapify(&mut self, slots: &mut [Slot]) {
        self.min_pos = NO_MIN;
        // Positions were maintained in the linear regime and sifts repair
        // them on every swap, so only the order needs establishing.
        for i in (0..self.entries.len() / ARITY + 1).rev() {
            self.sift_down(slots, i);
        }
    }

    /// Moves the entry at `pos` up until its parent is not after it.
    fn sift_up(&mut self, slots: &mut [Slot], mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.entries[pos].before(&self.entries[parent]) {
                self.entries.swap(pos, parent);
                slots[self.entries[pos].slot as usize].pos = pos as u32;
                slots[self.entries[parent].slot as usize].pos = parent as u32;
                pos = parent;
            } else {
                break;
            }
        }
    }

    /// Moves the entry at `pos` down until no child precedes it.
    fn sift_down(&mut self, slots: &mut [Slot], mut pos: usize) {
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
                slots[self.entries[pos].slot as usize].pos = pos as u32;
                slots[self.entries[best].slot as usize].pos = best as u32;
                pos = best;
            } else {
                break;
            }
        }
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking, O(1)
/// small-queue scheduling, and O(log n) in-place cancellation, on two
/// lanes: clocks (`schedule`, `schedule_at`) and timers
/// (`schedule_timer`).
///
/// # Ordering contract
///
/// [`Self::pop`] returns events in ascending `(time, seq)` order across
/// both lanes, where `seq` is the per-queue schedule counter that both
/// lanes share: **events scheduled for the same instant pop in the order
/// they were scheduled** (FIFO), on whichever lanes they were filed. This
/// is the exact tie-break of the reference queue, bit for bit — a
/// simulation draws its random numbers in pop order, so swapping the queue
/// implementation, or moving an event from one lane to the other, never
/// changes an estimate. Neither does it change a [`QueueStats`] field: the
/// linear/heap regime switches on the total pending count of both lanes.
/// The equivalence (pop sequences, `len`, `peek_time`, and cancel results,
/// under random schedule/cancel/pop/clear interleavings on random lanes)
/// is enforced by a property test in `crates/sim/tests/properties.rs`.
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
/// let scrub = q.schedule_timer(2.0, "scrub")?;
/// q.schedule_timer(5.0, "service")?;
/// assert!(q.cancel(scrub));
/// assert!(!q.cancel(scrub), "cancelling twice is a no-op");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (5.0, "service"));
/// assert_eq!(q.now(), 5.0);
/// assert_eq!(q.pop(), Some((10.0, "disk-failure")));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IndexedEventQueue<E> {
    /// The clock lane (index [`CLOCK`]) and the timer lane ([`TIMER`]).
    lanes: [Lane<E>; 2],
    /// Slot table of both lanes; each slot records its lane.
    slots: Vec<Slot>,
    /// Reusable slot ids.
    free: Vec<u32>,
    /// Schedule counter within the current clear cycle (the FIFO
    /// tie-break), shared by both lanes; [`Self::clear`] resets it and
    /// bumps `clear_epoch`. 64-bit so it cannot wrap within a mission — a
    /// wrapped counter could collide with [`FREE_SLOT`] and let a stale
    /// handle evict a live event.
    next_seq: u64,
    /// Number of [`Self::clear`] calls so far; stamped into handles so a
    /// pre-clear handle can never alias a post-clear event.
    clear_epoch: u64,
    now: f64,
    /// Whether both lanes are currently heap-ordered. Transitions linear →
    /// heap when a schedule takes the total pending count past
    /// [`LINEAR_MAX`]; only [`Self::clear`] returns to the linear regime.
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
            lanes: [Lane::new(), Lane::new()],
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            clear_epoch: 0,
            now: 0.0,
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
        self.stats.cancelled += self.len() as u64;
        for lane in &mut self.lanes {
            lane.entries.clear();
            lane.min_pos = NO_MIN;
        }
        self.slots.clear();
        self.free.clear();
        self.next_seq = 0;
        self.clear_epoch += 1;
        self.now = 0.0;
        self.is_heap = false;
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events on both lanes. Exact: cancelled events
    /// leave their lane immediately.
    #[inline]
    pub fn len(&self) -> usize {
        let [clock, timer] = &self.lanes;
        clock.entries.len() + timer.entries.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Schedules an event on the clock lane `delay` time units from now.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for negative or NaN delays.
    #[inline]
    pub fn schedule(&mut self, delay: f64, event: E) -> Result<IndexedEventHandle> {
        self.schedule_in(CLOCK, delay, event)
    }

    /// Schedules an event on the timer lane `delay` time units from now —
    /// for short-lived events (service and repair timers) filed beside
    /// many long-lived clocks, so that arming, cancelling and firing one
    /// touches a lane of a few entries. Pops in the same `(time, seq)`
    /// order as if it had been scheduled with [`Self::schedule`].
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for negative or NaN delays.
    #[inline]
    pub fn schedule_timer(&mut self, delay: f64, event: E) -> Result<IndexedEventHandle> {
        self.schedule_in(TIMER, delay, event)
    }

    /// Schedules an event on the clock lane at an absolute time, which
    /// must not lie in the past.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for times before `now` or NaN.
    #[inline]
    pub fn schedule_at(&mut self, time: f64, event: E) -> Result<IndexedEventHandle> {
        self.schedule_on(CLOCK, time, event)
    }

    /// Files an event on `lane`, `delay` time units from now.
    #[inline]
    fn schedule_in(&mut self, lane: usize, delay: f64, event: E) -> Result<IndexedEventHandle> {
        if delay < 0.0 || !delay.is_finite() {
            return Err(SimError::InvalidConfig(format!(
                "invalid event delay {delay}"
            )));
        }
        self.schedule_on(lane, self.now + delay, event)
    }

    /// Files an event on `lane` at an absolute time.
    #[inline]
    fn schedule_on(&mut self, lane: usize, time: f64, event: E) -> Result<IndexedEventHandle> {
        if time < self.now || !time.is_finite() {
            return Err(SimError::InvalidConfig(format!(
                "event time {time} is before current time {}",
                self.now
            )));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let l = &mut self.lanes[lane];
        let pos = l.entries.len() as u32;
        let fresh = Slot {
            seq,
            pos,
            lane: lane as u32,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = fresh;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(fresh);
                s
            }
        };
        l.entries.push(Entry {
            time,
            seq,
            slot,
            event,
        });
        let len = self.len();
        self.stats.scheduled += 1;
        self.stats.depth_high_water = self.stats.depth_high_water.max(len as u64);
        let l = &mut self.lanes[lane];
        if self.is_heap {
            l.sift_up(&mut self.slots, pos as usize);
        } else if len <= LINEAR_MAX {
            if l.min_pos == NO_MIN || l.entries[pos as usize].before(&l.entries[l.min_pos as usize])
            {
                l.min_pos = pos;
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

    /// Cancels a scheduled event **in place**, removing it from its lane
    /// immediately. Returns `true` if the event was still pending; a stale
    /// handle (already popped, already cancelled, or from before a
    /// [`Self::clear`]) returns `false` and changes nothing.
    pub fn cancel(&mut self, handle: IndexedEventHandle) -> bool {
        let slot = match self.slots.get(handle.slot as usize) {
            Some(s) if handle.epoch == self.clear_epoch && s.seq == handle.seq => *s,
            _ => return false,
        };
        self.stats.cancelled += 1;
        self.release_slot(handle.slot);
        self.lanes[slot.lane as usize].cancel_at(&mut self.slots, slot.pos as usize, self.is_heap);
        true
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.pop_due(f64::INFINITY)
    }

    /// [`Self::pop`], but only if the next event is due at or before
    /// `horizon` — the single-probe form of the peek-compare-pop idiom that
    /// dominates mission loops. Returns `None` (clock untouched) when the
    /// queue is empty or the next event lies beyond the horizon.
    #[inline]
    pub fn pop_due(&mut self, horizon: f64) -> Option<(f64, E)> {
        let (lane, time) = self.next_event()?;
        if time > horizon {
            return None;
        }
        let entry = self.lanes[lane].pop_min(&mut self.slots, self.is_heap);
        self.release_slot(entry.slot);
        self.stats.fired += 1;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Cancels **every** pending event in one pass, without touching the
    /// clock — the bulk form of [`Self::cancel`] for simulators whose
    /// state transitions void all armed events at once (e.g. a race of
    /// exponentials where one exit fired). All outstanding handles become
    /// stale. Unlike [`Self::clear`], `now` and the schedule counter are
    /// preserved, so subsequent relative schedules still measure from the
    /// current simulation time.
    pub fn cancel_all(&mut self) {
        self.stats.cancelled += self.len() as u64;
        for lane in &mut self.lanes {
            for e in lane.entries.drain(..) {
                self.slots[e.slot as usize].seq = FREE_SLOT;
                self.free.push(e.slot);
            }
            lane.min_pos = NO_MIN;
        }
    }

    /// Timestamp of the next pending event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.next_event().map(|(_, time)| time)
    }

    /// The next event's lane and time: the earlier of the two lanes'
    /// minima by `(time, seq)`.
    #[inline]
    fn next_event(&self) -> Option<(usize, f64)> {
        let [clock, timer] = &self.lanes;
        match (clock.min(self.is_heap), timer.min(self.is_heap)) {
            (Some(c), Some(t)) if t.before(c) => Some((TIMER, t.time)),
            (Some(c), _) => Some((CLOCK, c.time)),
            (None, Some(t)) => Some((TIMER, t.time)),
            (None, None) => None,
        }
    }

    /// Marks `slot` free and recycles it.
    #[inline]
    fn release_slot(&mut self, slot: u32) {
        self.slots[slot as usize].seq = FREE_SLOT;
        self.free.push(slot);
    }

    /// Heap-orders both lanes and enters the heap regime (left only via
    /// [`Self::clear`]). Once per clear cycle at most, so kept out of the
    /// schedule path's code.
    #[cold]
    fn heapify(&mut self) {
        self.stats.heap_crossings += 1;
        self.is_heap = true;
        for lane in &mut self.lanes {
            lane.heapify(&mut self.slots);
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
        let mut q = IndexedEventQueue::new();
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

    #[test]
    fn same_instant_events_on_different_lanes_pop_in_schedule_order() {
        // Ties across lanes break by the shared schedule counter, below
        // and above the heap threshold alike.
        for later_clocks in [0u64, LINEAR_MAX as u64] {
            let mut q = IndexedEventQueue::new();
            for i in 0..later_clocks {
                q.schedule_at(10.0 + i as f64, 100 + i).unwrap();
            }
            q.schedule(1.0, 1).unwrap();
            q.schedule_timer(1.0, 2).unwrap();
            q.schedule_timer(1.0, 3).unwrap();
            q.schedule_at(1.0, 4).unwrap();
            q.schedule_timer(1.0, 5).unwrap();
            assert_eq!(q.is_heap, later_clocks > 0);
            for want in 1..=5 {
                assert_eq!(q.peek_time(), Some(1.0));
                assert_eq!(q.pop(), Some((1.0, want)));
            }
            assert_eq!(q.len(), later_clocks as usize);
        }
    }

    #[test]
    fn the_regime_crosses_once_per_cycle_on_the_pending_count_of_both_lanes() {
        let mut q = IndexedEventQueue::new();
        for timers in [0, 1, LINEAR_MAX / 2, LINEAR_MAX, LINEAR_MAX + 1] {
            let before = q.stats().heap_crossings;
            // The 33rd pending event heapifies, whichever lane holds the
            // entries.
            for i in 0..=LINEAR_MAX {
                let t = ((i * 7) % 11) as f64;
                if i < timers {
                    q.schedule_timer(t, i).unwrap();
                } else {
                    q.schedule(t, i).unwrap();
                }
                assert_eq!(q.is_heap, i == LINEAR_MAX, "{timers} timers, event {i}");
            }
            // Draining below the threshold and refilling past it again
            // stays in the heap regime without another crossing.
            let mut popped = Vec::new();
            for _ in 0..LINEAR_MAX {
                popped.push(q.pop().unwrap().0);
            }
            for i in 0..LINEAR_MAX {
                q.schedule_timer(i as f64, i).unwrap();
            }
            assert!(q.is_heap);
            while let Some((t, _)) = q.pop() {
                popped.push(t);
            }
            assert!(popped.windows(2).all(|w| w[0] <= w[1]), "{popped:?}");
            assert_eq!(q.stats().heap_crossings, before + 1);
            assert_eq!(q.stats().depth_high_water, LINEAR_MAX as u64 + 1);
            q.clear();
            assert!(!q.is_heap);
        }
        assert!(q.stats().conserves(q.len()));
    }

    #[test]
    fn a_timer_handle_is_refused_after_it_fired_was_cancelled_or_cleared() {
        for clocks in [1u64, LINEAR_MAX as u64 + 8] {
            let mut q = IndexedEventQueue::new();
            for i in 0..clocks {
                q.schedule_at(100.0 + i as f64, "clock").unwrap();
            }
            let fired = q.schedule_timer(1.0, "fired").unwrap();
            let cancelled = q.schedule_timer(2.0, "cancelled").unwrap();
            assert_eq!(q.pop(), Some((1.0, "fired")));
            assert!(!q.cancel(fired), "fired");
            assert!(q.cancel(cancelled));
            assert!(!q.cancel(cancelled), "cancelled");
            // The freed slots are reused; the stale handles stay refused.
            let live = q.schedule_timer(3.0, "live").unwrap();
            q.schedule_timer(4.0, "other").unwrap();
            assert!(!q.cancel(fired) && !q.cancel(cancelled));
            assert_eq!(q.len(), clocks as usize + 2);
            q.clear();
            let fresh = q.schedule_timer(3.0, "fresh").unwrap();
            assert!(!q.cancel(live), "cleared");
            assert!(!q.cancel(fired) && !q.cancel(cancelled));
            assert_eq!(q.len(), 1);
            assert!(q.cancel(fresh));
            assert!(q.is_empty());
            assert!(q.stats().conserves(0));
        }
    }
}
