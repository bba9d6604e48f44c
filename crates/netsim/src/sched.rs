//! The simulator's event queue.
//!
//! [`Queue`] pairs the scheduler with the cancel rule. The scheduler is a
//! **two-tier hierarchical timer wheel** ([`Wheel`]): a near-horizon binary
//! heap of imminent events fed by eight levels of 64 coarse far-horizon
//! slots. Far events cost O(1) to insert; they cascade toward the near lane
//! as simulated time reaches them, each event moving at most `LEVELS - 1`
//! times over its lifetime. Dispatch order is total on `(at, seq)` — exactly
//! the order one plain binary heap over every pending event would pop. The
//! model test in this module holds the queue to an ordered map, and the
//! simulator's debug builds assert that every dispatched key is strictly
//! greater than the last.
//!
//! ## Why dispatch order is preserved
//!
//! The wheel partitions pending events by *tick* (`at >> TICK_SHIFT`):
//! everything at a tick `<= elapsed_tick` lives in the near heap, ordered
//! by `(at, seq)`; everything later lives in a wheel slot. Advancing the
//! wheel always drains the earliest occupied slot of the lowest occupied
//! level, and every event in level `l` is strictly later than every event
//! in level `l-1` (they differ from `elapsed_tick` in a higher 6-bit tick
//! group), so the near heap's minimum is always the global minimum.
//!
//! ## Cancelled timers: tombstoned at pop
//!
//! A cancelled timer's entry stays where it is. [`Queue::cancel_timer`]
//! records its handle with its fire time; when the entry pops, the record
//! is consumed and the pop reports a [`Ghost`](Popped::Ghost) at the
//! entry's own `(at, seq)` key, which advances the clock, dispatches
//! nothing and consumes no event budget. Records whose fire time a run has
//! passed — a cancel issued after the fire, or an entry a spent budget
//! left queued for good — are purged when the run ends. Because a ghost
//! stays queued until its key comes up, the pending-event horizon — and
//! with it every deadline and budget check — is the same as if the timer
//! had been live.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::arena::PacketRef;
use crate::fxhash::FxHashMap;
use crate::time::SimTime;

/// What happens when a scheduled event's time arrives.
///
/// Node, channel and link indices are stored as `u32` (the simulator
/// asserts its tables stay below that where they grow): it keeps a
/// [`Scheduled`] at 40 bytes instead of 48, which measured ≈9 % per event —
/// every push, cascade, sift and pop moves one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Hand a packet to the agent on `node` (or forward it on).
    Deliver { node: u32, packet: PacketRef },
    /// Fire an agent timer.
    TimerFire { node: u32, handle: u64, tag: u64 },
    /// A channel's in-flight transmission completes.
    ChanDequeue { chan: u32 },
    /// A delayed tap emission reaches its channel.
    ChanEnqueue { chan: u32, packet: PacketRef },
    /// Wheel-mode delivery marker: dispatch the head of channel `chan`'s
    /// in-order delivery FIFO, then drain consecutive entries inline while
    /// they remain globally next (see `Simulator::dispatch`).
    ChanDeliver { chan: u32 },
    /// Fire a tap timer.
    TapTimerFire { link: u32, tag: u64 },
    /// Run a scheduled control action.
    Control { key: u64 },
}

/// One pending event. Total order on `(at, seq)`; `seq` is the global
/// push counter, so simultaneous events dispatch in push order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scheduled {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then lowest seq) pops
        // first, giving deterministic FIFO ordering of simultaneous events.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Result of popping the scheduler.
pub(crate) enum Popped {
    /// A cancelled timer's entry, at its `(at, seq)` key: advances the
    /// clock, dispatches nothing, and is not counted against the event
    /// budget.
    Ghost((SimTime, u64)),
    /// A live event to dispatch.
    Event(Scheduled),
}

/// Level-0 tick width: 2^16 ns ≈ 65.5 µs. Eight levels of 64 slots cover
/// `64^8 = 2^48` ticks — the entire `u64` nanosecond range, so
/// [`SimTime::MAX`] ("never") parks in level 7 without special cases.
const TICK_SHIFT: u32 = 16;
/// Number of wheel levels.
const LEVELS: usize = 8;
/// Slots per level (6 bits of tick per level).
const SLOTS: usize = 64;

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.tick(TICK_SHIFT)
}

/// The two-tier hierarchical timer wheel (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Wheel {
    /// Imminent events (tick `<= elapsed_tick`), ordered by `(at, seq)`.
    near: BinaryHeap<Scheduled>,
    /// Far events, bucketed by tick: `slots[level * SLOTS + slot]`.
    slots: Vec<Vec<Scheduled>>,
    /// Per-level bitmap of non-empty slots (bit `s` = slot `s` occupied).
    occupancy: [u64; LEVELS],
    /// The wheel's current tick position. Everything in the wheel is at a
    /// strictly later tick; the near heap holds the rest.
    elapsed_tick: u64,
    /// Total events resident in wheel slots.
    far_len: usize,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            near: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            elapsed_tick: 0,
            far_len: 0,
        }
    }

    fn len(&self) -> usize {
        self.near.len() + self.far_len
    }

    /// The wheel level and slot for a future tick, relative to
    /// `elapsed_tick`: the level of the highest differing 6-bit tick
    /// group, the slot that group's value.
    #[inline]
    fn bucket(&self, tick: u64) -> (usize, usize) {
        let xor = tick ^ self.elapsed_tick;
        debug_assert!(xor != 0, "bucket() called for the current tick");
        let level = ((63 - xor.leading_zeros()) / 6) as usize;
        debug_assert!(level < LEVELS, "tick beyond the wheel span");
        let slot = ((tick >> (6 * level as u32)) & 63) as usize;
        (level, slot)
    }

    fn push(&mut self, ev: Scheduled) {
        let tick = tick_of(ev.at);
        if tick <= self.elapsed_tick {
            self.near.push(ev);
        } else {
            let (level, slot) = self.bucket(tick);
            self.slots[level * SLOTS + slot].push(ev);
            self.occupancy[level] |= 1u64 << slot;
            self.far_len += 1;
        }
    }

    /// Drains the earliest occupied slot of the lowest occupied level: a
    /// level-0 slot is promoted into the near lane, a higher slot cascades
    /// toward it. Caller guarantees the near heap is empty and the wheel
    /// is not.
    fn advance(&mut self) {
        debug_assert!(self.near.is_empty() && self.far_len > 0);
        let level = (0..LEVELS)
            .find(|&l| self.occupancy[l] != 0)
            .expect("far_len > 0 but every level empty");
        let slot = self.occupancy[level].trailing_zeros() as usize;
        let idx = level * SLOTS + slot;
        // Drain the slot through a local so `push` can borrow `self`, then
        // hand the (emptied) vector back: the slot keeps its allocation
        // instead of regrowing from zero on its next use.
        let mut entries = std::mem::take(&mut self.slots[idx]);
        self.occupancy[level] &= !(1u64 << slot);
        self.far_len -= entries.len();
        if level == 0 {
            // A level-0 slot holds exactly one tick; jump to it and
            // promote everything into the near lane.
            self.elapsed_tick = (self.elapsed_tick & !63) | slot as u64;
            self.near.extend(entries.drain(..));
        } else {
            // Jump to the start of the slot's tick range (everything
            // between was unoccupied) and re-bucket its contents: each
            // entry now lands at a strictly lower level, or in the near
            // heap if it sits exactly on the new elapsed tick.
            let width = 6 * level as u32;
            let high = !0u64 << (width + 6);
            self.elapsed_tick = (self.elapsed_tick & high) | ((slot as u64) << width);
            for ev in entries.drain(..) {
                self.push(ev);
            }
        }
        // Nothing can have landed in the drained slot meanwhile (see
        // above), so putting the vector back loses no event.
        assert!(self.slots[idx].is_empty(), "cascade re-entered its slot");
        self.slots[idx] = entries;
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        // Cascade until the near lane holds the next event.
        while self.near.is_empty() && self.far_len > 0 {
            self.advance();
        }
        self.near.peek().map(|ev| (ev.at, ev.seq))
    }

    /// Pops the next entry if it is due by `deadline` — the run loop's
    /// peek, deadline test and pop in one pass over the lanes.
    fn pop_due(&mut self, deadline: SimTime) -> Option<Scheduled> {
        while self.near.is_empty() && self.far_len > 0 {
            if let Some(ev) = self.take_lone_due(deadline) {
                return Some(ev);
            }
            self.advance();
        }
        if self.near.peek()?.at > deadline {
            return None;
        }
        self.near.pop()
    }

    /// The sparse-traffic fast path of [`pop_due`](Self::pop_due): with the
    /// near lane empty, the earliest pending event is the lowest occupied
    /// level-0 slot's. When that slot holds a single entry that is due,
    /// serve it straight from the slot instead of promoting it into the
    /// near heap only to pop it again. Leaves the wheel exactly as
    /// `advance` followed by the pop would.
    fn take_lone_due(&mut self, deadline: SimTime) -> Option<Scheduled> {
        if self.occupancy[0] == 0 {
            return None;
        }
        let slot = self.occupancy[0].trailing_zeros() as usize;
        let &[ev] = self.slots[slot].as_slice() else {
            return None;
        };
        if ev.at > deadline {
            return None;
        }
        self.slots[slot].clear();
        self.occupancy[0] &= !(1u64 << slot);
        self.far_len -= 1;
        self.elapsed_tick = (self.elapsed_tick & !63) | slot as u64;
        Some(ev)
    }
}

/// The simulator's event queue: the wheel plus the cancel rule (see module
/// docs).
#[derive(Debug, Clone)]
pub(crate) struct Queue {
    wheel: Wheel,
    /// Cancelled timers by handle, with the time each would have fired.
    cancelled: FxHashMap<u64, SimTime>,
    /// Records purged after their fire time passed.
    timers_purged: u64,
}

impl Queue {
    pub(crate) fn new() -> Queue {
        Queue {
            wheel: Wheel::new(),
            cancelled: FxHashMap::default(),
            timers_purged: 0,
        }
    }

    /// Pending entries, cancelled timers' included.
    pub(crate) fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Live cancellation records, for the deterministic fork-cost estimate.
    pub(crate) fn cancelled_len(&self) -> usize {
        self.cancelled.len()
    }

    pub(crate) fn push(&mut self, ev: Scheduled) {
        self.wheel.push(ev);
    }

    /// The `(at, seq)` key the next pop will observe, advancing the wheel
    /// if its near lane ran dry.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.wheel.peek_key()
    }

    /// Pops the next entry if its key is at or before `deadline`.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<Popped> {
        let ev = self.wheel.pop_due(deadline)?;
        if let EventKind::TimerFire { handle, .. } = ev.kind {
            if !self.cancelled.is_empty() && self.cancelled.remove(&handle).is_some() {
                return Some(Popped::Ghost((ev.at, ev.seq)));
            }
        }
        Some(Popped::Event(ev))
    }

    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<Popped> {
        self.pop_due(SimTime::MAX)
    }

    /// Cancels a timer that fires at `at`: its entry pops as a ghost. A
    /// cancel after the fire leaves a record the next purge drops.
    pub(crate) fn cancel_timer(&mut self, handle: u64, at: SimTime) {
        self.cancelled.insert(handle, at);
    }

    /// Drops the records of timers that fire at or before `now`, once no
    /// pop can consume them: a record dropped while its entry can still
    /// pop would let that entry fire.
    pub(crate) fn purge_cancelled(&mut self, now: SimTime) {
        let before = self.cancelled.len();
        self.cancelled.retain(|_, at| *at > now);
        self.timers_purged += (before - self.cancelled.len()) as u64;
    }

    /// Cancellation records purged without their entry popping.
    pub(crate) fn timers_purged(&self) -> u64 {
        self.timers_purged
    }

    /// Every pending entry, in no particular order (tests only).
    #[cfg(test)]
    pub(crate) fn pending(&self) -> Vec<Scheduled> {
        let w = &self.wheel;
        w.near
            .iter()
            .chain(w.slots.iter().flatten())
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;

    fn timer(at: u64, seq: u64, handle: u64) -> Scheduled {
        Scheduled {
            at: SimTime::from_nanos(at),
            seq,
            kind: EventKind::TimerFire {
                node: 0,
                handle,
                tag: handle,
            },
        }
    }

    fn control(at: u64, seq: u64) -> Scheduled {
        Scheduled {
            at: SimTime::from_nanos(at),
            seq,
            kind: EventKind::Control { key: seq },
        }
    }

    /// A pop as `(at, seq, is_ghost)`.
    type Pop = (u64, u64, bool);

    fn observe(popped: Popped) -> Pop {
        match popped {
            Popped::Ghost((at, seq)) => (at.as_nanos(), seq, true),
            Popped::Event(ev) => (ev.at.as_nanos(), ev.seq, false),
        }
    }

    /// Drains a queue, recording each pop.
    fn drain(queue: &mut Queue) -> Vec<Pop> {
        let mut log = Vec::new();
        while let Some((at, seq)) = queue.peek_key() {
            let pop = observe(queue.pop().expect("peeked"));
            assert_eq!((pop.0, pop.1), (at.as_nanos(), seq), "pop must match peek");
            log.push(pop);
        }
        log
    }

    #[test]
    fn wheel_pops_in_total_order() {
        let mut q = Queue::new();
        // Same tick, far ticks, boundary ticks, MAX — pushed out of order.
        let times = [
            u64::MAX,
            0,
            1,
            (1 << TICK_SHIFT) - 1,
            1 << TICK_SHIFT,
            (64 << TICK_SHIFT) + 3,
            (64 * 64) << TICK_SHIFT,
            u64::MAX - 1,
            5,
            (63 << TICK_SHIFT) + 7,
        ];
        for (seq, &at) in times.iter().enumerate() {
            q.push(control(at, seq as u64));
        }
        let log = drain(&mut q);
        let mut sorted = log.clone();
        sorted.sort();
        assert_eq!(log, sorted, "pops must follow (at, seq) order");
        assert_eq!(log.len(), times.len());
    }

    /// A far-resident timer cancelled on the wheel: the cancel rule is the
    /// queue's own, so the entry stays in its slot, cascades with it, and
    /// pops as a ghost at its own key ahead of the live event after it.
    #[test]
    fn wheel_cancel_is_native_and_ghosts_preserve_keys() {
        let mut q = Queue::new();
        q.push(timer(5 << TICK_SHIFT, 0, 100));
        q.push(control(6 << TICK_SHIFT, 1));
        q.cancel_timer(100, SimTime::from_nanos(5 << TICK_SHIFT));
        assert_eq!(q.len(), 2, "the cancelled entry stays queued");
        assert_eq!(q.cancelled_len(), 1);
        let log = drain(&mut q);
        assert_eq!(
            log,
            vec![(5 << TICK_SHIFT, 0, true), (6 << TICK_SHIFT, 1, false)],
            "ghost pops at the cancelled timer's key, then the live event"
        );
        assert_eq!(q.cancelled_len(), 0, "the ghost pop consumed the record");
        assert_eq!(q.timers_purged(), 0, "nothing left to purge");
    }

    #[test]
    fn wheel_cancel_of_near_resident_timer_tombstones() {
        let mut q = Queue::new();
        q.push(timer(10, 0, 7)); // tick 0 == elapsed → near lane
        q.cancel_timer(7, SimTime::from_nanos(10));
        assert_eq!(q.timers_purged(), 0, "near cancels are tombstoned");
        let log = drain(&mut q);
        assert_eq!(log, vec![(10, 0, true)]);
    }

    /// Cancelling a timer that already fired changes nothing that pops:
    /// its record only waits for the purge that follows its fire time.
    #[test]
    fn wheel_cancel_after_fire_is_a_noop() {
        let mut q = Queue::new();
        q.push(timer(10, 0, 7));
        assert_eq!(drain(&mut q), vec![(10, 0, false)]);
        q.cancel_timer(7, SimTime::from_nanos(10));
        assert_eq!(q.len(), 0, "no entry comes back for a fired timer");
        assert!(q.peek_key().is_none());
        q.push(timer(20, 1, 8));
        assert_eq!(drain(&mut q), vec![(20, 1, false)], "other timers fire");
        q.purge_cancelled(SimTime::from_nanos(20));
        assert_eq!(q.cancelled_len(), 0, "the record is gone once purged");
        assert_eq!(q.timers_purged(), 1);
    }

    /// The queue's contract restated over an ordered map, with its own
    /// cancel set: entries pop in `(at, seq)` order; a timer whose handle
    /// has a record pops as a ghost and consumes it; a purge drops the
    /// records that fire at or before its `now`.
    #[derive(Debug, Clone, Default)]
    struct Model {
        /// Pending entries by `(at, seq)`, with the handle of a timer.
        pending: BTreeMap<(u64, u64), Option<u64>>,
        /// Cancel records: handle → fire time.
        cancelled: BTreeMap<u64, u64>,
        purged: u64,
    }

    impl Model {
        fn peek_key(&self) -> Option<(SimTime, u64)> {
            let (&(at, seq), _) = self.pending.first_key_value()?;
            Some((SimTime::from_nanos(at), seq))
        }

        fn pop_due(&mut self, deadline: u64) -> Option<Pop> {
            let (&(at, seq), &handle) = self.pending.first_key_value()?;
            if at > deadline {
                return None;
            }
            self.pending.remove(&(at, seq));
            let ghost = handle.is_some_and(|h| self.cancelled.remove(&h).is_some());
            Some((at, seq, ghost))
        }

        fn purge(&mut self, now: u64) {
            let before = self.cancelled.len();
            self.cancelled.retain(|_, at| *at > now);
            self.purged += (before - self.cancelled.len()) as u64;
        }

        fn assert_matches(&self, queue: &mut Queue, context: &str) {
            assert_eq!(queue.peek_key(), self.peek_key(), "{context}: peek key");
            assert_eq!(queue.len(), self.pending.len(), "{context}: len");
            let cancelled = (queue.cancelled_len(), queue.timers_purged());
            assert_eq!(
                cancelled,
                (self.cancelled.len(), self.purged),
                "{context}: records"
            );
        }
    }

    /// An offset from the clock `now`: a few nanoseconds, up to one tick,
    /// one either side of a level's span (`64^l` ticks) from `now` or from
    /// the next boundary of that span, or next to `SimTime::MAX`.
    fn offset(rng: &mut TestRng, now: u64) -> u64 {
        let level = rng.next_u64() % LEVELS as u64;
        let span = 1u64 << (TICK_SHIFT as u64 + 6 * level);
        let nudge = |x: u64| [x.saturating_sub(1), x, x.saturating_add(1)];
        match rng.next_u64() % 8 {
            0..=1 => rng.next_u64() % 4,
            2 => rng.next_u64() % (1 << TICK_SHIFT),
            3..=4 => nudge(span)[(rng.next_u64() % 3) as usize],
            5..=6 => nudge(span - now % span)[(rng.next_u64() % 3) as usize],
            _ => (u64::MAX - now).saturating_sub(rng.next_u64() % 4),
        }
    }

    /// One random schedule of pushes, cancels (of live and fired timers),
    /// partial and full `pop_due` runs, purges and forks, checked step by
    /// step against [`Model`]. A fork parks clones of the queue and its
    /// model while the originals go on; every parked pair drains at the end.
    fn check_against_model(seed: u64) {
        let mut rng = TestRng::from_seed(seed);
        let (mut queue, mut model) = (Queue::new(), Model::default());
        let mut parked = Vec::new();
        let (mut now, mut seq) = (0u64, 0u64);
        let mut timers: Vec<(u64, u64)> = Vec::new();
        for step in 0..120 {
            let context = format!("seed {seed} step {step}");
            match rng.next_u64() % 16 {
                0..=5 => {
                    for _ in 0..1 + rng.next_u64() % 3 {
                        let at = now.saturating_add(offset(&mut rng, now));
                        let is_timer = rng.next_u64() & 1 == 1;
                        if is_timer {
                            timers.push((seq, at));
                            queue.push(timer(at, seq, seq));
                        } else {
                            queue.push(control(at, seq));
                        }
                        model.pending.insert((at, seq), is_timer.then_some(seq));
                        seq += 1;
                    }
                }
                6..=8 => {
                    if let Some(pick) = (rng.next_u64() as usize).checked_rem(timers.len()) {
                        let (handle, at) = timers[pick];
                        queue.cancel_timer(handle, SimTime::from_nanos(at));
                        model.cancelled.insert(handle, at);
                    }
                }
                9..=12 => {
                    // Up to `max` pops; draining everything due ends the
                    // run at its deadline, as `run_until` does.
                    let deadline = now.saturating_add(offset(&mut rng, now));
                    for _ in 0..1 + rng.next_u64() % 8 {
                        let want = model.pop_due(deadline);
                        let got = queue.pop_due(SimTime::from_nanos(deadline));
                        assert_eq!(got.map(observe), want, "{context}: pop");
                        let Some((at, ..)) = want else {
                            now = deadline;
                            break;
                        };
                        now = at;
                    }
                }
                13..=14 => {
                    queue.purge_cancelled(SimTime::from_nanos(now));
                    model.purge(now);
                }
                _ => parked.push((queue.clone(), model.clone())),
            }
            model.assert_matches(&mut queue, &context);
        }
        parked.push((queue, model));
        for (mut queue, mut model) in parked {
            let want: Vec<Pop> = std::iter::from_fn(|| model.pop_due(u64::MAX)).collect();
            assert_eq!(drain(&mut queue), want, "seed {seed}: drain");
            queue.purge_cancelled(SimTime::MAX);
            model.purge(u64::MAX);
            model.assert_matches(&mut queue, &format!("seed {seed}: drained"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The queue pops exactly what an ordered map with its own cancel
        /// set pops: keys, ghosts, lengths and record counts, step by step.
        #[test]
        fn queue_matches_an_ordered_map_model(seed in any::<u64>()) {
            check_against_model(seed);
        }
    }

    #[test]
    fn drained_slots_keep_their_allocation() {
        let mut wheel = Wheel::new();
        // Two events in one level-0 slot, four in one level-1 slot.
        let near_tick = 5u64 << TICK_SHIFT;
        let far_tick = (3 * 64u64) << TICK_SHIFT;
        for seq in 0..2 {
            wheel.push(control(near_tick + seq, seq));
        }
        for seq in 2..6 {
            wheel.push(control(far_tick + seq, seq));
        }
        let (level0, level1) = (5, SLOTS + 3);
        let before = (
            wheel.slots[level0].capacity(),
            wheel.slots[level1].capacity(),
        );
        assert!(before.0 >= 2 && before.1 >= 4);
        let mut popped = 0;
        while wheel.pop_due(SimTime::MAX).is_some() {
            popped += 1;
        }
        assert_eq!(popped, 6);
        assert!(wheel.slots[level0].is_empty() && wheel.slots[level1].is_empty());
        assert_eq!(
            (
                wheel.slots[level0].capacity(),
                wheel.slots[level1].capacity()
            ),
            before,
            "promotion and cascade must hand each slot its vector back"
        );
    }

    #[test]
    fn cascade_boundaries_preserve_order() {
        // Events straddling every level boundary, popped after partial
        // drains so cascades interleave with fresh same-tick pushes.
        let mut q = Queue::new();
        let mut expect = Vec::new();
        let mut seq = 0;
        for level in 0..LEVELS as u32 {
            let span = 1u64 << (TICK_SHIFT + 6 * level);
            for delta in [span.saturating_sub(1), span, span + 1] {
                q.push(control(delta, seq));
                expect.push((delta, seq, false));
                seq += 1;
            }
        }
        expect.sort();
        assert_eq!(drain(&mut q), expect);
    }
}
