//! The simulation engine: a clock plus the pending-event store.
//!
//! The engine is generic over the event payload `E`; the caller owns the
//! dispatch loop, which keeps borrows simple and lets the fabric model hold
//! all mutable state outside the engine:
//!
//! ```
//! use asi_sim::{Simulator, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_after(SimDuration::from_ns(10), Ev::Ping(1));
//! let mut seen = vec![];
//! while let Some(fired) = sim.next_event() {
//!     seen.push(fired.event);
//! }
//! assert_eq!(seen, vec![Ev::Ping(1)]);
//! ```
//!
//! # The deterministic event key
//!
//! Events are stored in a [`TimingWheel`] and fire in [`EventKey`] order:
//! `(time, origin rank, per-origin sequence)`. Every event carries the
//! rank it executes as ([`Simulator::schedule_event`]); while it is being
//! dispatched, that rank is the *origin* of everything it schedules.
//! Events scheduled outside a dispatch, or by a dispatch with no rank,
//! have origin [`EXTERNAL_RANK`]. At one timestamp, lower origins fire
//! first, and one origin's events fire in the order it scheduled them.

use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceHandle};
use crate::wheel::{EventKey, TimingWheel};

/// Origin rank of events scheduled from outside any dispatch (the
/// harness, the fabric constructor) and by dispatches of events that
/// execute with no rank. Sorts after every device rank at the same
/// timestamp.
pub const EXTERNAL_RANK: u32 = u32::MAX;

/// An event popped from the queue, stamped with its firing time.
#[derive(Debug)]
pub struct Fired<E> {
    /// The instant the event fires (now equal to `Simulator::now`).
    pub time: SimTime,
    /// The payload.
    pub event: E,
}

/// Per-origin sequence allocator backing [`EventKey::seq`].
#[derive(Default)]
struct SeqAlloc {
    per_rank: Vec<u32>,
    external: u32,
}

impl SeqAlloc {
    #[inline]
    fn next(&mut self, origin: u32) -> u32 {
        if origin == EXTERNAL_RANK {
            let s = self.external;
            self.external += 1;
            s
        } else {
            let i = origin as usize;
            if i >= self.per_rank.len() {
                self.per_rank.resize(i + 1, 0);
            }
            let s = self.per_rank[i];
            self.per_rank[i] += 1;
            s
        }
    }
}

/// Time-periodic queue-depth sampler.
///
/// Boundaries sit at multiples of the period; a sample for boundary `B` is
/// emitted exactly when the engine is about to hand out the first event
/// with `time >= B` — i.e. at the cut "everything before `B` fired".
struct Sampler {
    trace: TraceHandle,
    period_ps: u64,
    next_ps: u64,
}

impl Sampler {
    fn disabled() -> Sampler {
        Sampler {
            trace: TraceHandle::disabled(),
            period_ps: 0,
            next_ps: 0,
        }
    }

    fn configure(&mut self, trace: TraceHandle, period: SimDuration) {
        self.period_ps = if trace.is_enabled() {
            period.as_ps()
        } else {
            0
        };
        self.next_ps = self.period_ps;
        self.trace = trace;
    }

    /// Emits samples for every boundary at or before `upto`.
    #[inline]
    fn advance(&mut self, upto: SimTime, depth: u64, processed: u64) {
        if self.period_ps == 0 {
            return;
        }
        while self.next_ps <= upto.as_ps() {
            let at = SimTime::from_ps(self.next_ps);
            self.trace
                .emit(at, || TraceEvent::QueueSample { depth, processed });
            self.next_ps += self.period_ps;
        }
    }
}

/// Discrete-event simulation engine on a timing wheel.
///
/// Invariants:
/// - `now()` is monotonically non-decreasing;
/// - events fire in [`EventKey`] order, so runs are reproducible;
/// - scheduling in the past (before `now()`) is a logic error and panics in
///   debug builds; in release it fires immediately at `now()`.
pub struct Simulator<E> {
    /// Pending events, each with the rank it executes as.
    wheel: TimingWheel<(u32, E)>,
    seqs: SeqAlloc,
    /// Origin rank for events scheduled right now: the rank of the event
    /// being dispatched, [`EXTERNAL_RANK`] outside dispatch.
    origin: u32,
    now: SimTime,
    processed: u64,
    /// Hard cap on processed events; guards against accidental event storms
    /// in tests. `u64::MAX` by default.
    event_limit: u64,
    sampler: Sampler,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an engine at time zero.
    pub fn new() -> Self {
        Simulator {
            wheel: TimingWheel::new(),
            seqs: SeqAlloc::default(),
            origin: EXTERNAL_RANK,
            now: SimTime::ZERO,
            processed: 0,
            event_limit: u64::MAX,
            sampler: Sampler::disabled(),
        }
    }

    /// Sets a hard cap on the number of events that [`Self::next_event`]
    /// will return; exceeding it panics. Useful to fail fast on runaway
    /// feedback loops in tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Installs time-periodic queue-depth sampling: one
    /// [`TraceEvent::QueueSample`] per elapsed `period` of simulated time,
    /// emitted at the cut "all events before the boundary fired, none at or
    /// after it". A disabled `handle` or a zero `period` turns it off.
    pub fn set_sampling(&mut self, handle: TraceHandle, period: SimDuration) {
        self.sampler.configure(handle, period);
    }

    /// Called by the dispatch loop after each event's handler has run:
    /// later schedules come from outside a dispatch again and get origin
    /// [`EXTERNAL_RANK`].
    pub fn finish_dispatch(&mut self) {
        self.origin = EXTERNAL_RANK;
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// True if nothing is scheduled.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.wheel.is_empty()
    }

    #[inline]
    fn push(&mut self, at: SimTime, rank: u32, event: E) {
        let origin = self.origin;
        let key = EventKey {
            time: at,
            origin,
            seq: self.seqs.next(origin),
        };
        self.wheel.push(key, (rank, event));
    }

    /// Schedules `event` at absolute time `at`, executing with no rank.
    ///
    /// # Panics
    /// Debug builds panic if `at < now()`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_event(at, EXTERNAL_RANK, event);
    }

    /// Schedules `event` at `at`, executing as `rank`: the events its
    /// dispatch schedules get `rank` as their origin. Use
    /// [`EXTERNAL_RANK`] for no rank.
    ///
    /// # Panics
    /// Debug builds panic if `at < now()`.
    #[inline]
    pub fn schedule_event(&mut self, at: SimTime, rank: u32, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        self.push(at.max(self.now), rank, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self
            .now
            .checked_add(delay)
            .expect("SimTime overflow while scheduling");
        self.push(at, EXTERNAL_RANK, event);
    }

    /// Schedules `event` to fire immediately (at `now()`, after any events
    /// of the same origin already scheduled for `now()`).
    pub fn schedule_now(&mut self, event: E) {
        self.push(self.now, EXTERNAL_RANK, event);
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_key().map(|k| k.time)
    }

    /// Pops the next event and moves the clock to its firing time.
    pub fn next_event(&mut self) -> Option<Fired<E>> {
        let head = self.wheel.peek_key()?;
        Some(self.fire(head.time))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    /// If the next event is later (or none exists), the clock advances to
    /// `deadline` and `None` is returned.
    pub fn next_event_until(&mut self, deadline: SimTime) -> Option<Fired<E>> {
        match self.wheel.peek_key() {
            Some(head) if head.time <= deadline => Some(self.fire(head.time)),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Pops the head event, which fires at `time`.
    #[inline]
    fn fire(&mut self, time: SimTime) -> Fired<E> {
        self.sampler
            .advance(time, self.wheel.len() as u64, self.processed);
        let (_, (rank, event)) = self.wheel.pop().expect("peeked");
        debug_assert!(time >= self.now, "event queue went backwards");
        self.origin = rank;
        self.now = time;
        self.processed += 1;
        assert!(
            self.processed <= self.event_limit,
            "simulation exceeded event limit of {} events",
            self.event_limit
        );
        Fired { time, event }
    }

    /// Advances the clock without processing events (e.g. to model a dead
    /// period). Panics in debug builds if events would be skipped.
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= at),
            "advance_to would skip pending events"
        );
        if at > self.now {
            self.now = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_ns(10), "a");
        sim.schedule_at(SimTime::from_ns(5), "b");
        let f = sim.next_event().unwrap();
        assert_eq!(f.event, "b");
        assert_eq!(sim.now(), SimTime::from_ns(5));
        let f = sim.next_event().unwrap();
        assert_eq!(f.event, "a");
        assert_eq!(sim.now(), SimTime::from_ns(10));
        assert!(sim.next_event().is_none());
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_ns(100), ());
        sim.next_event();
        sim.schedule_after(SimDuration::from_ns(50), ());
        let f = sim.next_event().unwrap();
        assert_eq!(f.time, SimTime::from_ns(150));
    }

    #[test]
    fn schedule_now_fires_at_current_time() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_ns(7), 1);
        sim.next_event();
        sim.schedule_now(2);
        let f = sim.next_event().unwrap();
        assert_eq!(f.time, SimTime::from_ns(7));
        assert_eq!(f.event, 2);
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        let mut sim = Simulator::new();
        let t = SimTime::from_us(1);
        for i in 0..10 {
            sim.schedule_at(t, i);
        }
        for i in 0..10 {
            assert_eq!(sim.next_event().unwrap().event, i);
        }
    }

    #[test]
    fn serial_kernel_orders_by_time_then_origin_then_seq() {
        let mut sim = Simulator::new();
        let t = SimTime::from_ns(5);
        sim.schedule_at(t, "ext-0");
        sim.schedule_event(t, 1, "ext-1");
        sim.schedule_event(SimTime::from_ns(7), 2, "ext-2");
        assert_eq!(sim.next_event().map(|f| f.event), Some("ext-0"));
        sim.finish_dispatch();
        // Dispatching the rank-1 event: its schedules carry origin 1 and
        // sort before same-time external ones scheduled earlier.
        assert_eq!(sim.next_event().map(|f| f.event), Some("ext-1"));
        sim.schedule_event(SimTime::from_ns(7), 0, "from-r1");
        sim.finish_dispatch();
        // Back outside a dispatch: origin external again, after ext-2.
        sim.schedule_at(SimTime::from_ns(7), "ext-3");
        let rest: Vec<_> = std::iter::from_fn(|| sim.next_event().map(|f| f.event)).collect();
        assert_eq!(rest, ["from-r1", "ext-2", "ext-3"]);
    }

    #[test]
    fn next_event_until_respects_deadline() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_us(10), "late");
        assert!(sim.next_event_until(SimTime::from_us(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_us(5));
        // Event still pending and fires once the deadline passes it.
        let f = sim.next_event_until(SimTime::from_us(20)).unwrap();
        assert_eq!(f.event, "late");
        assert_eq!(sim.now(), SimTime::from_us(10));
    }

    #[test]
    fn next_event_until_with_empty_queue_advances_clock() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(sim.next_event_until(SimTime::from_ms(1)).is_none());
        assert_eq!(sim.now(), SimTime::from_ms(1));
    }

    #[test]
    fn pending_and_idle_reflect_queue() {
        let mut sim = Simulator::new();
        assert!(sim.is_idle());
        sim.schedule_after(SimDuration::from_ns(1), ());
        assert_eq!(sim.pending(), 1);
        assert!(!sim.is_idle());
        sim.next_event();
        assert!(sim.is_idle());
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_trips() {
        let mut sim = Simulator::new();
        sim.set_event_limit(2);
        for _ in 0..3 {
            sim.schedule_now(());
        }
        while sim.next_event().is_some() {}
    }

    #[test]
    fn queue_depth_sampling_fires_once_per_period() {
        use crate::trace::{TraceRecord, TraceSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct VecSink(Vec<TraceRecord>);
        impl TraceSink for VecSink {
            fn record(&mut self, record: TraceRecord) {
                self.0.push(record);
            }
        }

        let sink = Rc::new(RefCell::new(VecSink::default()));
        let mut sim = Simulator::new();
        sim.set_sampling(TraceHandle::to(sink.clone()), SimDuration::from_ns(3));
        for i in 0..10u64 {
            sim.schedule_at(SimTime::from_ns(i), i);
        }
        while sim.next_event().is_some() {}
        let records = &sink.borrow().0;
        // 10 events at 0..=9 ns: boundaries 3, 6 and 9 ns, each cut just
        // before the event at that instant fires.
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].time, SimTime::from_ns(3));
        match records[0].event {
            TraceEvent::QueueSample { depth, processed } => {
                assert_eq!(processed, 3);
                assert_eq!(depth, 7);
            }
            ref other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn disabled_trace_disables_sampling() {
        let mut sim = Simulator::new();
        sim.set_sampling(TraceHandle::disabled(), SimDuration::from_ns(1));
        sim.schedule_at(SimTime::from_ns(5), ());
        assert!(sim.next_event().is_some());
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.advance_to(SimTime::from_us(3));
        assert_eq!(sim.now(), SimTime::from_us(3));
        sim.advance_to(SimTime::from_us(1));
        assert_eq!(sim.now(), SimTime::from_us(3));
    }
}
