//! The simulation main loop.

use crate::event::EventId;
use crate::keyed::KeyedQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulator: a clock plus a future-event list.
///
/// The simulator is generic over the event payload type `E`; the domain layers
/// (`ssmcast-manet` and the protocol crates) define their own event enums. The engine
/// never inspects payloads — it only orders them in time. Its queue is a
/// [`KeyedQueue`] with the unit key, so events at the same timestamp pop in the order
/// they were scheduled.
#[derive(Debug)]
pub struct Simulator<E> {
    queue: KeyedQueue<(), E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Create a simulator with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create a simulator pre-allocating queue space for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Simulator { queue: KeyedQueue::with_capacity(cap), now: SimTime::ZERO, processed: 0 }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (live) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event at an absolute time. Scheduling in the past is clamped to "now"
    /// (the event still fires, immediately after currently pending same-time events).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.max(self.now);
        self.queue.push(at, (), payload)
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.queue.push(self.now + delay, (), payload)
    }

    /// Cancel a pending event; see [`KeyedQueue::cancel`] for the contract.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let (t, (), payload) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue must never run backwards");
        self.now = t;
        self.processed += 1;
        Some((t, payload))
    }

    /// Timestamp of the next pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        let (t, ev) = sim.pop_next().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(ev, Ev::Tick(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        sim.pop_next();
        sim.schedule_at(SimTime::from_secs(1), Ev::Tick(2));
        let (t, _) = sim.pop_next().unwrap();
        assert_eq!(t, SimTime::from_secs(5), "past events fire at the current time");
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulator::new();
        let id = sim.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Tick(2));
        assert!(sim.cancel(id));
        assert_eq!(sim.pending(), 1);
        let seen: Vec<_> = std::iter::from_fn(|| sim.pop_next()).map(|(_, ev)| ev).collect();
        assert_eq!(seen, vec![Ev::Tick(2)]);
    }
}
