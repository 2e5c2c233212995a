//! The flight recorder: where recorded events go.
//!
//! There is one recorder, and "off" is no recorder at all: the emitting
//! layer holds an `Option<Recorder>` and tests it before it builds an
//! event, so the disabled path costs one branch per potential event.
//! The recorder never allocates per event beyond its buffer, never
//! reads a clock (events arrive pre-stamped with virtual time) and
//! never draws RNG — recording is observation, not behaviour.

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// How an experiment run wants its flight recorder configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No recording; emitters skip event construction (the default).
    Off,
    /// Keep the newest events up to the given bound (dump-on-failure
    /// history).
    Ring(usize),
    /// Record everything for post-run export.
    Full,
}

/// Keeps the newest `bound` events (every event when unbounded) and
/// counts what it sheds. A bounded ring is the flight-recorder mode for
/// long runs — memory stays flat and the tail always holds the moments
/// before a failure; an unbounded one feeds a whole-run export.
#[derive(Debug)]
pub struct Recorder {
    buf: VecDeque<TraceEvent>,
    bound: Option<usize>,
    dropped: u64,
}

impl Recorder {
    /// The recorder `mode` describes, `None` for [`TraceMode::Off`]. A
    /// ring's bound is clamped to at least 1 and reserved up front; an
    /// unbounded recorder grows as it records.
    #[must_use]
    pub fn new(mode: TraceMode) -> Option<Self> {
        let bound = match mode {
            TraceMode::Off => return None,
            TraceMode::Ring(n) => Some(n.max(1)),
            TraceMode::Full => None,
        };
        Some(Recorder {
            buf: VecDeque::with_capacity(bound.unwrap_or(0)),
            bound,
            dropped: 0,
        })
    }

    /// Records one event, shedding the oldest when the ring is full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.bound == Some(self.buf.len()) {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// The newest `n` events (fewer if fewer are held), oldest first,
    /// without consuming them.
    pub fn tail(&self, n: usize) -> impl ExactSizeIterator<Item = &TraceEvent> {
        self.buf.iter().skip(self.buf.len().saturating_sub(n))
    }

    /// Removes and returns everything held, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    /// Events shed because the ring was full (0 when unbounded).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use clash_simkernel::time::SimTime;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(seq * 10),
            seq,
            kind: TraceEventKind::ServerJoined { server: seq },
        }
    }

    fn recorded(mode: TraceMode, n: u64) -> Recorder {
        let mut r = Recorder::new(mode).expect("an enabled mode");
        for i in 0..n {
            r.record(ev(i));
        }
        r
    }

    fn seqs<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<u64> {
        events.into_iter().map(|e| e.seq).collect()
    }

    #[test]
    fn trace_mode_builds_matching_recorders() {
        assert!(
            Recorder::new(TraceMode::Off).is_none(),
            "off is no recorder"
        );
        assert_eq!(Recorder::new(TraceMode::Ring(8)).unwrap().bound, Some(8));
        assert_eq!(Recorder::new(TraceMode::Full).unwrap().bound, None);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = recorded(TraceMode::Ring(3), 5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.tail(2).len(), 2);
        assert_eq!(seqs(r.tail(2)), [3, 4]);
        assert_eq!(
            seqs(r.tail(64)),
            [2, 3, 4],
            "a tail is at most what is held"
        );
        assert_eq!(seqs(&r.drain()), [2, 3, 4]);
        assert!(r.drain().is_empty());
        assert_eq!(
            r.dropped(),
            2,
            "draining forgets events, not the shed count"
        );
    }

    #[test]
    fn ring_bound_clamps_to_one_and_is_reserved() {
        let r = recorded(TraceMode::Ring(0), 3);
        assert_eq!(seqs(r.tail(8)), [2]);
        assert_eq!(r.dropped(), 2);
        assert!(Recorder::new(TraceMode::Ring(100)).unwrap().buf.capacity() >= 100);
    }

    #[test]
    fn unbounded_keeps_everything_in_order_without_reserving() {
        assert_eq!(Recorder::new(TraceMode::Full).unwrap().buf.capacity(), 0);
        let mut r = recorded(TraceMode::Full, 100);
        assert_eq!(r.dropped(), 0);
        assert_eq!(seqs(r.tail(3)), [97, 98, 99]);
        assert_eq!(seqs(&r.drain()), (0..100).collect::<Vec<_>>());
    }
}
