//! The discrete-event queue.
//!
//! Two implementations share one contract — events pop in
//! `(time, insertion sequence)` order, so two events scheduled for the same
//! instant are always delivered in the order they were scheduled:
//!
//! * [`EventQueue`] — the production queue: a hierarchical **timing wheel**
//!   (calendar queue) with O(1) amortized schedule and pop at high event
//!   rates. Payloads live in a generation-counted slab; the wheel itself
//!   moves only small plain-data handles when cascading between levels.
//! * [`ReferenceEventQueue`] — the retained pre-refactor `BinaryHeap`
//!   implementation. It is the executable specification: the differential
//!   proptests below (and the trace-equality tests one layer up) assert
//!   that both queues produce byte-identical pop sequences.
//!
//! ## Wheel geometry
//!
//! Six levels of 64 slots, level-0 granularity of one simulated microsecond
//! (the clock's native tick): level *l* slots span `64^l` ticks, so the
//! wheel covers `64^6` ticks ≈ 19.1 simulated hours ahead of its cursor.
//! Events beyond that horizon wait in a small overflow heap and migrate
//! into the wheel as the cursor advances — far-future events (idle-timer
//! sentinels, `SimTime::MAX` deadlines) are rare, so the heap stays tiny.
//!
//! Scheduling hashes the event into `levels[level_of(delta)]` by its
//! absolute tick; popping advances the cursor directly to the next occupied
//! slot (per-level occupancy bitmaps make the scan six `u64` inspections),
//! cascading higher-level slots downward until a level-0 slot — one exact
//! tick — drains into a sorted pending run. Same-instant ties are resolved
//! by sorting that run on the insertion sequence, reproducing the heap's
//! order exactly.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The shared event-scheduler contract: events pop in `(time, insertion
/// sequence)` order.
///
/// Implemented by the production timing wheel ([`EventQueue`]) and the
/// retained heap-based reference ([`ReferenceEventQueue`]), so every host
/// of the wheel — the simulator drivers here, the UDP runtime's timer
/// queue in `rrmp-udp`, the differential benchmarks — programs against
/// one interface and one implementation instead of growing private timer
/// heaps.
///
/// ## Cancellation is lazy
///
/// The contract deliberately has no `cancel`: a calendar queue cannot
/// remove an arbitrary event without a per-event handle map, and none of
/// the hosts need eager removal. A host that multiplexes many owners over
/// one wheel (the UDP runtime hosts every member of an event-loop thread
/// on a single queue) tags each event with the owner's generation and
/// discards stale fires at pop time — the same scheme the simulator's
/// timer slab uses.
pub trait Scheduler<E> {
    /// Schedules `event` to fire at `at`.
    fn schedule(&mut self, at: SimTime, event: E);

    /// Removes and returns the earliest event, or `None` if empty.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Pops the earliest event only if it fires at or before `limit` — a
    /// peek-then-pop, never a pop-and-re-push.
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)>;

    /// The firing time of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;

    /// How long after `now` the earliest event fires: `None` when the
    /// queue is empty, [`crate::time::SimDuration::ZERO`] when it is
    /// already due. Hosts that block on an external wait (the UDP
    /// runtime's `poll(2)` timeout) use this to bound the wait by the
    /// next deadline without duplicating the saturation logic.
    fn next_due_in(&self, now: SimTime) -> Option<crate::time::SimDuration> {
        self.peek_time().map(|at| at.saturating_since(now))
    }

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events, keeping allocations where the
    /// implementation can.
    fn clear(&mut self);
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        EventQueue::schedule(self, at, event);
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        EventQueue::pop_at_or_before(self, limit)
    }
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn clear(&mut self) {
        EventQueue::clear(self);
    }
}

impl<E> Scheduler<E> for ReferenceEventQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        ReferenceEventQueue::schedule(self, at, event);
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        ReferenceEventQueue::pop(self)
    }
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        ReferenceEventQueue::pop_at_or_before(self, limit)
    }
    fn peek_time(&self) -> Option<SimTime> {
        ReferenceEventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        ReferenceEventQueue::len(self)
    }
    fn clear(&mut self) {
        ReferenceEventQueue::clear(self);
    }
}

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// Ticks (microseconds) the wheel covers ahead of its cursor.
const WHEEL_RANGE: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// A 24-byte plain-data handle stored in the wheel: the firing tick, the
/// global insertion sequence (the determinism tiebreak), and the slab slot
/// holding the payload plus that slot's generation at insertion time.
///
/// The derived ordering is lexicographic `(at, seq, …)`; `seq` is unique,
/// so `(at, seq)` already totally orders entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// Slab of event payloads with per-slot generation counters.
///
/// A slot's generation is odd while occupied and even while free (the same
/// scheme as the simulator's timer slab); `remove` asserts the handle's
/// generation so a stale or double-freed handle is caught immediately.
/// Memory is bounded by the peak number of *concurrently pending* events.
#[derive(Debug)]
struct PayloadSlab<E> {
    slots: Vec<(u32, Option<E>)>,
    free: Vec<u32>,
}

impl<E> PayloadSlab<E> {
    fn new() -> Self {
        PayloadSlab { slots: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, event: E) -> (u32, u32) {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.0 = s.0.wrapping_add(1);
                debug_assert!(s.0 & 1 == 1, "occupied generation must be odd");
                debug_assert!(s.1.is_none(), "free-list slot still occupied");
                s.1 = Some(event);
                (slot, s.0)
            }
            None => {
                self.slots.push((1, Some(event)));
                ((self.slots.len() - 1) as u32, 1)
            }
        }
    }

    fn remove(&mut self, slot: u32, gen: u32) -> E {
        let s = &mut self.slots[slot as usize];
        assert_eq!(s.0, gen, "stale payload-slab handle");
        s.0 = s.0.wrapping_add(1);
        self.free.push(slot);
        s.1.take().expect("occupied slab slot holds a payload")
    }

    /// Drops all payloads but keeps the slot and free-list allocations.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// The production event queue: a hierarchical timing wheel.
///
/// Orders events by `(time, insertion sequence)` — identical observable
/// behavior to [`ReferenceEventQueue`], at O(1) amortized cost per
/// schedule/pop instead of O(log n).
///
/// ```
/// use rrmp_netsim::event::EventQueue;
/// use rrmp_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flattened; bucket `level * SLOTS + slot`.
    levels: Vec<Vec<Entry>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// All entries at ticks `<= cursor` have been drained into `pending`.
    cursor: u64,
    /// The next entries to pop, sorted descending by `(at, seq)` so the
    /// minimum pops from the back. All pending entries are at ticks
    /// `<= cursor`, so they precede everything still in the wheel.
    pending: Vec<Entry>,
    /// The exact firing tick of the earliest event, `None` when empty —
    /// maintained incrementally so [`EventQueue::peek_time`] never has to
    /// disturb the wheel. Scheduling takes a running minimum; popping
    /// restores it from the settled pending run.
    next_time: Option<u64>,
    /// Entries beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Event payloads; the wheel only moves [`Entry`] handles.
    slab: PayloadSlab<E>,
    next_seq: u64,
    len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            levels: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            cursor: 0,
            pending: Vec::new(),
            next_time: None,
            overflow: BinaryHeap::new(),
            slab: PayloadSlab::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = self.slab.insert(event);
        let entry = Entry { at: at.as_micros(), seq, slot, gen };
        self.len += 1;
        self.next_time = Some(self.next_time.map_or(entry.at, |t| t.min(entry.at)));
        if entry.at <= self.cursor {
            // At or before the cursor ("now", or a past instant): straight
            // into the sorted pending run.
            let pos = self.pending.partition_point(|p| *p > entry);
            self.pending.insert(pos, entry);
        } else if entry.at - self.cursor >= WHEEL_RANGE {
            self.overflow.push(Reverse(entry));
        } else {
            self.insert_wheel(entry);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.pending.is_empty() {
            self.settle();
        }
        let entry = self.pending.pop()?;
        self.len -= 1;
        let event = self.slab.remove(entry.slot, entry.gen);
        if self.pending.is_empty() {
            self.settle();
        }
        self.next_time = self.pending.last().map(|e| e.at);
        Some((SimTime::from_micros(entry.at), event))
    }

    /// Pops the earliest event only if it fires at or before `limit`.
    ///
    /// This is the horizon check `ShardedSim::run_until` uses: a single
    /// peek of the pending run — an event past the horizon is never
    /// removed and re-inserted, and the wheel structure is not disturbed.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_time.map(SimTime::from_micros)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all pending events **without releasing allocations**: slot
    /// vectors, the pending run, the overflow heap, and the payload slab
    /// all keep their capacity, so a cleared queue re-fills without
    /// re-growing from empty (important for `ShardedSim` reuse across runs).
    pub fn clear(&mut self) {
        for bucket in &mut self.levels {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.cursor = 0;
        self.pending.clear();
        self.next_time = None;
        self.overflow.clear();
        self.slab.clear();
        self.len = 0;
    }

    /// A capacity proxy: the number of payload slots plus wheel/pending
    /// entry capacity currently allocated. Used by tests and benches to
    /// assert that [`EventQueue::clear`] keeps memory warm.
    #[must_use]
    pub fn allocated_capacity(&self) -> usize {
        self.slab.capacity()
            + self.pending.capacity()
            + self.levels.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Hashes `entry` (which must satisfy `cursor <= at < cursor + range`)
    /// into its wheel level by absolute tick.
    fn insert_wheel(&mut self, entry: Entry) {
        let delta = entry.at - self.cursor;
        debug_assert!(delta < WHEEL_RANGE);
        let level =
            if delta == 0 { 0 } else { (63 - delta.leading_zeros() as usize) / SLOT_BITS as usize };
        let slot = ((entry.at >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        self.levels[level * SLOTS + slot].push(entry);
    }

    /// Re-establishes the pending invariant: advances the cursor to the
    /// next occupied slot (migrating newly in-range overflow entries and
    /// cascading higher levels down) and drains that slot — one exact tick
    /// — into the sorted pending run. No-op if events are already pending
    /// or the queue is empty.
    fn settle(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        loop {
            if self.occupied == [0; LEVELS] {
                // Wheel empty: jump the cursor to the overflow front so
                // far-future events come within range.
                let Some(&Reverse(front)) = self.overflow.peek() else { return };
                debug_assert!(front.at >= self.cursor);
                self.cursor = front.at;
            }
            while let Some(&Reverse(front)) = self.overflow.peek() {
                if front.at - self.cursor >= WHEEL_RANGE {
                    break;
                }
                self.overflow.pop();
                self.insert_wheel(front);
            }
            // The earliest occupied slot across levels; on a tick-start
            // tie a higher level wins so its entries cascade down first.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                let bits = self.occupied[level];
                if bits == 0 {
                    continue;
                }
                let shift = SLOT_BITS as usize * level;
                let offset = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                let ahead = bits >> offset;
                // Slots behind the cursor's offset hold *next-rotation*
                // entries. The cursor's own slot is current-rotation only
                // while the cursor sits exactly on its start (remainder
                // zero — always true at level 0); once the cursor is
                // inside the slot's span, its current-rotation range has
                // been cascaded away and an occupied own slot means
                // entries one full rotation ahead.
                let own_is_current = self.cursor & ((1u64 << shift) - 1) == 0;
                let current = if own_is_current { ahead } else { ahead >> 1 };
                let (idx, rotations) = if current != 0 {
                    let first = if own_is_current { offset } else { offset + 1 };
                    (first + current.trailing_zeros(), 0)
                } else {
                    (bits.trailing_zeros(), 1)
                };
                let window =
                    self.cursor >> (shift + SLOT_BITS as usize) << (shift + SLOT_BITS as usize);
                let tick = window + ((u64::from(idx) + rotations * SLOTS as u64) << shift);
                if best.is_none_or(|(t, l, _)| tick < t || (tick == t && level > l)) {
                    best = Some((tick, level, idx as usize));
                }
            }
            let (tick, level, idx) = best.expect("wheel holds an entry after overflow migration");
            debug_assert!(tick >= self.cursor);
            self.cursor = tick;
            self.occupied[level] &= !(1 << idx);
            // Drain the bucket in place and hand the (now empty) vector
            // back to the same bucket, so capacity stays where the
            // workload put it and cleared queues re-fill without growing.
            let mut moved = std::mem::take(&mut self.levels[level * SLOTS + idx]);
            if level == 0 {
                // One exact tick; sort descending so the minimum (lowest
                // seq) pops first from the back.
                self.pending.extend_from_slice(&moved);
                moved.clear();
                self.levels[level * SLOTS + idx] = moved;
                self.pending.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
            // Cascade a higher-level slot into finer levels.
            for entry in moved.drain(..) {
                self.insert_wheel(entry);
            }
            self.levels[level * SLOTS + idx] = moved;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The retained pre-refactor event queue: a `BinaryHeap` ordered by
/// `(time, insertion sequence)`.
///
/// Kept as the executable specification of the ordering contract: the
/// differential proptests in this module assert that [`EventQueue`] (the
/// timing wheel) pops the byte-identical sequence. The `queue_ops` and `multicast_fanout`
/// benchmark baselines run on this queue.
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        ReferenceEventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Pops the earliest event only if it fires at or before `limit` —
    /// a peek-then-pop, never a pop-and-re-push.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all pending events (the heap keeps its capacity).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 5);
        q.schedule(t(1), 1);
        q.schedule(t(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn next_due_in_saturates_on_overdue_events() {
        use crate::time::SimDuration;
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(Scheduler::next_due_in(&q, t(0)), None);
        q.schedule(t(10), 1);
        assert_eq!(Scheduler::next_due_in(&q, t(4)), Some(SimDuration::from_millis(6)));
        // An already-due event reports ZERO, never underflows.
        assert_eq!(Scheduler::next_due_in(&q, t(15)), Some(SimDuration::ZERO));
        // The reference queue shares the default implementation.
        let mut r: ReferenceEventQueue<u8> = ReferenceEventQueue::new();
        r.schedule(t(10), 1);
        assert_eq!(Scheduler::next_due_in(&r, t(4)), Some(SimDuration::from_millis(6)));
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(9), ());
        q.schedule(t(2), ());
        assert_eq!(q.peek_time(), Some(t(2)));
        let (at, ()) = q.pop().unwrap();
        assert_eq!(at, t(2));
        assert_eq!(q.peek_time(), Some(t(9)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn clear_keeps_allocations_warm() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i * 131 % 50_000), i);
        }
        while q.pop().is_some() {}
        let warmed = q.allocated_capacity();
        assert!(warmed > 0);
        q.clear();
        assert_eq!(q.allocated_capacity(), warmed, "clear must not shed capacity");
        // Refilling the same workload must not grow the queue further.
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i * 131 % 50_000), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.allocated_capacity(), warmed, "warmed queue re-grew");
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "late");
        q.schedule(t(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(t(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "late");
        q.schedule(t(2), "early");
        assert_eq!(q.pop_at_or_before(t(5)).unwrap().1, "early");
        assert_eq!(q.pop_at_or_before(t(5)), None);
        assert_eq!(q.len(), 1, "the late event must not be disturbed");
        assert_eq!(q.pop_at_or_before(t(10)).unwrap().1, "late");
    }

    #[test]
    fn schedule_at_or_before_cursor_still_pops_in_order() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        assert_eq!(q.pop().unwrap().1, 10);
        // The cursor sits at 10ms now; earlier instants must still pop
        // first among what remains.
        q.schedule(t(20), 20);
        q.schedule(t(3), 3);
        q.schedule(t(7), 7);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 7, 20]);
    }

    #[test]
    fn own_offset_slot_holds_next_rotation_entries() {
        // Regression: advance the cursor into the middle of a level-1
        // window, then schedule an event that hashes into the slot at the
        // cursor's own level-1 offset but one rotation ahead. The settle
        // scan must read that slot as a next-rotation candidate, not as a
        // tick behind the cursor.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "a");
        assert_eq!(q.pop().unwrap().1, "a"); // cursor now at tick 100
        q.schedule(SimTime::from_micros(4160), "b"); // level-1 slot 1 == offset
        q.schedule(SimTime::from_micros(150), "c");
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(150), "c"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(4160), "b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_overflow_ticks_pop_correctly() {
        let mut q = EventQueue::new();
        // Beyond the 64^6-tick wheel horizon, including the maximum instant.
        q.schedule(SimTime::MAX, "max");
        q.schedule(SimTime::from_secs(200_000), "far");
        q.schedule(t(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "max");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reference_queue_same_contract() {
        let mut q = ReferenceEventQueue::new();
        q.schedule(t(5), 5);
        q.schedule(t(1), 1);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop_at_or_before(t(0)), None);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.scheduled_total(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and events
        /// scheduled at equal times preserve insertion order.
        #[test]
        fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &ms) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(ms), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
            expected.sort(); // stable on (time, index)
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_micros(), i))).collect();
            prop_assert_eq!(got, expected);
        }
    }

    /// One step of a random queue workload: schedule at an absolute time
    /// drawn from a band (dense ties, sim-scale, or past-the-wheel-horizon
    /// overflow), schedule relative to the pop frontier (the pattern real
    /// simulations produce, which exercises mid-slot cursor positions),
    /// or pop.
    #[derive(Debug, Clone)]
    enum QueueOp {
        Schedule(u64),
        ScheduleAfterFrontier(u64),
        Pop,
    }

    fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            // Dense band: many same-instant ties.
            (0u64..40).prop_map(QueueOp::Schedule),
            // Simulation-scale micros (multi-level wheel traffic).
            (0u64..50_000_000).prop_map(QueueOp::Schedule),
            // Far-future overflow ticks, beyond the 64^6 wheel horizon.
            (crate::event::WHEEL_RANGE..u64::MAX).prop_map(QueueOp::Schedule),
            // Timer-like relative delays from the advancing frontier,
            // spanning several wheel levels.
            (0u64..300_000).prop_map(QueueOp::ScheduleAfterFrontier),
            Just(QueueOp::Pop),
            Just(QueueOp::Pop),
            Just(QueueOp::Pop),
        ]
    }

    proptest! {
        /// Differential: random interleaved schedule/pop sequences pop the
        /// identical `(time, seq-as-payload, event)` stream from the timing
        /// wheel and the reference heap, including same-instant ties and
        /// far-future overflow ticks.
        #[test]
        fn wheel_matches_reference_heap(
            ops in proptest::collection::vec(arb_queue_op(), 0..400),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = ReferenceEventQueue::new();
            let mut frontier = 0u64;
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    QueueOp::Schedule(us) => {
                        wheel.schedule(SimTime::from_micros(us), i);
                        heap.schedule(SimTime::from_micros(us), i);
                    }
                    QueueOp::ScheduleAfterFrontier(delta) => {
                        let us = frontier.saturating_add(delta);
                        wheel.schedule(SimTime::from_micros(us), i);
                        heap.schedule(SimTime::from_micros(us), i);
                    }
                    QueueOp::Pop => {
                        let (w, h) = (wheel.pop(), heap.pop());
                        if let Some((t, _)) = h {
                            frontier = t.as_micros();
                        }
                        prop_assert_eq!(w, h);
                    }
                }
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                prop_assert_eq!(wheel.len(), heap.len());
            }
            // Drain both completely; the tails must agree too.
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                prop_assert_eq!(w, h);
                if h.is_none() {
                    break;
                }
            }
            prop_assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
        }
    }
}
