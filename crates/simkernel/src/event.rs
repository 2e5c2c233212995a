//! Deterministic event queue.
//!
//! A priority queue over `(SimTime, sequence)` pairs. Events scheduled for
//! the same instant fire in insertion order, which makes simulation runs
//! reproducible bit-for-bit.
//!
//! # Layout
//!
//! A simulation keeps one pending event per source, and each pop schedules
//! that source's next event somewhere further out. A binary heap pays a
//! sift through the whole population for every such pair. This queue keeps
//! two tiers instead, in the spirit of Brown's calendar queue (CACM 1988):
//!
//! * **far** — an unsorted vector of every event at or past `edge`;
//! * **run** — the earliest quarter of far, cut off with
//!   `select_nth_unstable` once the run and the late heap are both empty,
//!   and sorted so that it pops from its end. `edge` moves to the run's
//!   latest time;
//! * **late** — a small heap of the events scheduled below `edge` after
//!   the cut. A pop takes the earlier of the run's tail and the heap's top.
//!
//! The run lives in the front of far's own buffer and pops by
//! `swap_remove`, so the queue holds one buffer the size of the population.
//! Every far event sorts after every run and late event, so the pop order
//! is exactly the `(at, seq)` order a single heap gives.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event of payload type `E`.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The pop order: time, then insertion, packed into one integer so
    /// that a comparison is one branch-free `u128` compare.
    fn key(&self) -> u128 {
        (u128::from(self.at.as_micros()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// The queue tracks the current simulated time: popping an event advances
/// `now()` to that event's timestamp. Scheduling into the past is a logic
/// error and panics.
///
/// # Example
///
/// ```
/// use clash_simkernel::event::EventQueue;
/// use clash_simkernel::time::{SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::ZERO + SimDuration::from_secs(1), "later");
/// q.schedule(SimTime::ZERO + SimDuration::from_millis(10), "soon");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("soon"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// `events[..run]` is the run, latest first; `events[run..]` is far.
    events: Vec<Scheduled<E>>,
    run: usize,
    /// Events scheduled below `edge` since the run was cut.
    late: BinaryHeap<Scheduled<E>>,
    /// The run's latest time at its cut: an event scheduled before it is
    /// late, any other goes to far. A new event at `edge` itself sorts
    /// after the run's events there (its `seq` is larger), and far may hold
    /// earlier-scheduled events at `edge`, so it must wait in far too.
    edge: SimTime,
    seq: u64,
    now: SimTime,
    scheduled_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            run: 0,
            late: BinaryHeap::new(),
            edge: SimTime::ZERO,
            seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len() + self.late.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for throughput reporting).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} < now={:?}",
            self.now
        );
        let ev = Scheduled {
            at,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.scheduled_total += 1;
        if at < self.edge {
            self.late.push(ev);
        } else {
            self.events.push(ev);
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, from_run) = self.front()?;
        let ev = if from_run {
            self.run -= 1;
            self.events.swap_remove(self.run)
        } else {
            self.late.pop()?
        };
        debug_assert!(ev.at >= self.now);
        self.now = ev.at;
        Some((ev.at, ev.payload))
    }

    /// Removes and returns the earliest event only if it fires strictly
    /// before `deadline`; otherwise leaves the pending events as they are.
    ///
    /// This is the primitive used to interleave event processing with
    /// periodic sampling loops.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.front() {
            Some((at, _)) if at < deadline => self.pop(),
            _ => None,
        }
    }

    /// The earliest event's time, and whether it is the run's tail (rather
    /// than the late heap's top). Cuts a new run when both are empty.
    fn front(&mut self) -> Option<(SimTime, bool)> {
        if self.run == 0 && self.late.is_empty() {
            self.cut();
        }
        let tail = self.run.checked_sub(1).map(|i| &self.events[i]);
        match (tail, self.late.peek()) {
            (Some(t), Some(l)) if l.key() < t.key() => Some((l.at, false)),
            (Some(t), _) => Some((t.at, true)),
            (None, Some(l)) => Some((l.at, false)),
            (None, None) => None,
        }
    }

    /// Cuts the earliest quarter of far (all of `events`, as the run is
    /// empty) into a run sorted latest first, and moves `edge` to its
    /// latest time.
    fn cut(&mut self) {
        let n = self.events.len();
        if n == 0 {
            return;
        }
        let k = n.div_ceil(4);
        if k < n {
            self.events
                .select_nth_unstable_by_key(k - 1, Scheduled::key);
        }
        let run = &mut self.events[..k];
        run.sort_unstable_by_key(|ev| Reverse(ev.key()));
        self.edge = run[0].at;
        self.run = k;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::time::SimDuration;

    /// The one-heap queue this layout replaced, with its own order
    /// (`seq` is unique, so the payload never decides): the reference.
    struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
        seq: u64,
        now: SimTime,
    }

    impl<E: Ord> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }

        fn schedule(&mut self, at: SimTime, payload: E) {
            assert!(at >= self.now);
            self.heap.push(Reverse((at, self.seq, payload)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((at, _, payload)) = self.heap.pop()?;
            self.now = at;
            Some((at, payload))
        }

        fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
            match self.heap.peek() {
                Some(Reverse((at, _, _))) if *at < deadline => self.pop(),
                _ => None,
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1u32);
        q.schedule(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(10), "b");
        assert_eq!(
            q.pop_before(SimTime::from_secs(5)).map(|(_, e)| e),
            Some("a")
        );
        assert_eq!(q.pop_before(SimTime::from_secs(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counts_scheduled_total() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_secs(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_total(), 5);
    }

    /// A run cut through a burst at one instant leaves the burst's later
    /// events in far; a new event at that instant must still wait for them.
    #[test]
    fn an_event_at_the_edge_waits_for_far_events_there() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..8u32 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        q.schedule(t, 8);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (1..9).collect::<Vec<_>>());
    }

    /// One step of the differential test.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// `count` events at `now + delta`.
        Schedule {
            delta: u64,
            count: u64,
        },
        Pop,
        /// `pop_before(now + delta)`.
        PopBefore {
            delta: u64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0u64..64, 0u64..4, 1u64..6).prop_map(|(kind, small, scale, count)| {
            // Deltas at `now`, a few µs out, across a run, and far future.
            let delta = small * [0, 1, 1_000, 1_000_000_000][scale as usize];
            match kind {
                0..=2 => Op::Schedule { delta, count: 1 },
                3 => Op::Schedule { delta, count },
                4..=6 => Op::Pop,
                _ => Op::PopBefore { delta },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any interleaving of schedules, pops and deadline pops gives the
        /// same events, clock and length as the one-heap queue, step by
        /// step. A preload of up to 600 events at coarse times puts ties
        /// across cuts, and draining it crosses many cuts.
        #[test]
        fn matches_the_binary_heap_reference(
            preload in prop::collection::vec(0u64..40, 0..600),
            ops in prop::collection::vec(op(), 1..800),
        ) {
            let mut q = EventQueue::new();
            let mut reference = HeapQueue::new();
            let mut next = 0u64;
            for &secs in &preload {
                q.schedule(SimTime::from_secs(secs), next);
                reference.schedule(SimTime::from_secs(secs), next);
                next += 1;
            }
            for op in ops.into_iter().chain(std::iter::repeat_n(Op::Pop, preload.len())) {
                let now = q.now();
                let at = |delta| now + SimDuration::from_micros(delta);
                match op {
                    Op::Schedule { delta, count } => {
                        let t = at(delta);
                        for _ in 0..count {
                            q.schedule(t, next);
                            reference.schedule(t, next);
                            next += 1;
                        }
                    }
                    Op::Pop => prop_assert_eq!(q.pop(), reference.pop()),
                    Op::PopBefore { delta } => {
                        let deadline = at(delta);
                        prop_assert_eq!(q.pop_before(deadline), reference.pop_before(deadline));
                    }
                }
                prop_assert_eq!(q.now(), reference.now);
                prop_assert_eq!(q.len(), reference.heap.len());
            }
        }
    }
}
