//! # ssmcast-dessim — deterministic discrete-event simulation engine
//!
//! The paper evaluates its protocols inside ns-2; no comparable MANET simulator exists as
//! a Rust library, so this crate provides the event-engine substrate the rest of the
//! workspace is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, totally ordered,
//!   with convenient conversions from floating-point seconds.
//! * [`KeyedQueue`] — a binary-heap future-event list ordered by `(time, key)` with O(1)
//!   amortised cancellation. Caller-keyed tie-breaking makes event order a pure function
//!   of the event set (the sharded runtime merges concurrently produced events through
//!   it); the unit key gives stable `(time, sequence)` order.
//! * [`Simulator`] — the main loop over a unit-keyed queue: schedule events, pop them in
//!   time order and advance the clock.
//! * [`SeedSequence`] — reproducible derivation of independent RNG streams from a single
//!   scenario seed, so simulations are replayable bit-for-bit.
//!
//! The engine itself is single-threaded and deterministic: given the same seed and the
//! same sequence of schedule calls it produces the same trajectory. Parallelism in this
//! workspace lives one level up — independent experiment cells run on a scoped thread
//! pool in `ssmcast-scenario`, and `ssmcast-manet` shards one large simulation across
//! worker threads, each draining its own [`KeyedQueue`] — which keeps this hot loop
//! allocation-light and free of synchronisation.
//!
//! ```
//! use ssmcast_dessim::{Simulator, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_secs_f64(1.0), Ev::Ping(1));
//! sim.schedule_in(SimDuration::from_secs_f64(0.5), Ev::Ping(2));
//! let mut order = Vec::new();
//! while let Some((t, ev)) = sim.pop_next() {
//!     let Ev::Ping(k) = ev;
//!     order.push((t.as_secs_f64(), k));
//! }
//! assert_eq!(order, vec![(0.5, 2), (1.0, 1)]);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod keyed;
pub mod rng;
pub mod sim;
pub mod time;

pub use event::EventId;
pub use keyed::KeyedQueue;
pub use rng::SeedSequence;
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};
