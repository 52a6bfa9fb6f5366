//! Outside-in layer tracing: wrapper types that implement the simulator's public layer
//! traits around the real implementations, counting every call exactly and timing a
//! sample of them.
//!
//! * [`Traced`] wraps a [`ProtocolAgent`] (the agents of `ssmcast-core` and
//!   `ssmcast-baselines`).
//! * [`CountedMobility`] wraps a [`Mobility`] process, which the radio medium owns.
//! * [`TimedProbe`] wraps a [`StabilizationObserver`] (`core::probe`).
//!
//! Timing every call would distort what is measured (it roughly doubles an n = 50
//! SS-SPST-E run), so agent and mobility calls are timed one in [`SAMPLE_EVERY`] and
//! scaled up by the exact call count. Probe calls happen once per probe epoch or fault,
//! a few hundred per run, so each one is timed.

use rand::rngs::StdRng;
use ssmcast_dessim::{SimDuration, SimTime};
use ssmcast_manet::{
    BoxedMobility, DataTag, Disposition, FaultKind, Mobility, NodeCtx, NodeId, Packet,
    ProbeContext, ProtocolAgent, StabilizationObserver, Vec2,
};
use ssmcast_metrics::ConvergenceStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Exact call counts plus the summed duration of the sampled calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Nanoseconds spent in the timed calls.
    pub sampled_ns: u64,
}

impl Timing {
    /// Run `f`, counting it and timing it if it is the sampled call.
    #[inline]
    fn measure<R>(&mut self, every: u64, f: impl FnOnce() -> R) -> R {
        let timed = self.calls.is_multiple_of(every);
        self.calls += 1;
        if !timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.sampled_ns += start.elapsed().as_nanos() as u64;
        self.sampled += 1;
        out
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: &Timing) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Estimated seconds spent in all calls: the sampled time, less the clock's own
    /// cost per reading (`overhead_ns`, see [`timer_overhead_ns`]), scaled by
    /// calls/sampled.
    pub fn estimated_s(&self, overhead_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let net_ns = (self.sampled_ns as f64 - overhead_ns * self.sampled as f64).max(0.0);
        net_ns * 1e-9 * self.calls as f64 / self.sampled as f64
    }
}

/// The median cost of timing an empty call, nanoseconds: what each sampled call's
/// reading adds to the call itself. Agent and mobility calls are tens of nanoseconds,
/// so the estimate would otherwise be dominated by the clock.
pub fn timer_overhead_ns() -> f64 {
    let mut t = Timing::default();
    let mut readings: Vec<u64> = (0..4001)
        .map(|_| {
            let before = t.sampled_ns;
            t.measure(1, || std::hint::black_box(()));
            t.sampled_ns - before
        })
        .collect();
    readings.sort_unstable();
    readings[readings.len() / 2] as f64
}

/// Per-agent tallies, read back through `NetworkSim::agent_in` after the run (the
/// sharded engine moves agents onto its workers and restores them afterwards).
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentTally {
    /// Every callback that does protocol work (start, packet, timer, app data,
    /// post-corruption), counted and sampled together.
    pub timing: Timing,
    /// `on_packet` calls.
    pub on_packet: u64,
    /// `on_packet` calls the agent reported as [`Disposition::Consumed`].
    pub consumed: u64,
    /// `on_timer` calls.
    pub on_timer: u64,
    /// `on_app_data` calls.
    pub on_app_data: u64,
    /// Actions queued by all callbacks.
    pub actions: u64,
}

impl AgentTally {
    /// Fold another agent's tally into this one.
    pub fn add(&mut self, other: &AgentTally) {
        self.timing.add(&other.timing);
        self.on_packet += other.on_packet;
        self.consumed += other.consumed;
        self.on_timer += other.on_timer;
        self.on_app_data += other.on_app_data;
        self.actions += other.actions;
    }
}

/// A protocol agent with call counting and sampled timing. Every trait method is
/// forwarded, including the defaulted ones: without `tree_parent` the trait default
/// (`None`) would make every tree illegitimate to the stabilization probe.
pub struct Traced<A> {
    inner: A,
    tally: AgentTally,
}

impl<A> Traced<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        Traced { inner, tally: AgentTally::default() }
    }

    /// What this agent was asked to do so far.
    pub fn tally(&self) -> &AgentTally {
        &self.tally
    }
}

impl<A: ProtocolAgent> Traced<A> {
    /// Count, sample-time and action-count one callback.
    #[inline]
    fn call<R>(
        &mut self,
        ctx: &mut NodeCtx<'_, A::Payload>,
        f: impl FnOnce(&mut A, &mut NodeCtx<'_, A::Payload>) -> R,
    ) -> R {
        let before = ctx.pending_actions();
        let inner = &mut self.inner;
        let out = self.tally.timing.measure(SAMPLE_EVERY, || f(inner, ctx));
        self.tally.actions += (ctx.pending_actions() - before) as u64;
        out
    }
}

impl<A: ProtocolAgent> ProtocolAgent for Traced<A> {
    type Payload = A::Payload;

    fn start(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>) {
        self.call(ctx, |a, ctx| a.start(ctx));
    }

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, Self::Payload>,
        packet: &Packet<Self::Payload>,
    ) -> Disposition {
        self.tally.on_packet += 1;
        let d = self.call(ctx, |a, ctx| a.on_packet(ctx, packet));
        if d == Disposition::Consumed {
            self.tally.consumed += 1;
        }
        d
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>, kind: u64, key: u64) {
        self.tally.on_timer += 1;
        self.call(ctx, |a, ctx| a.on_timer(ctx, kind, key));
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>, tag: DataTag, size_bytes: u32) {
        self.tally.on_app_data += 1;
        self.call(ctx, |a, ctx| a.on_app_data(ctx, tag, size_bytes));
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn tree_parent(&self) -> Option<NodeId> {
        self.inner.tree_parent()
    }

    fn corrupt_state(&mut self, rng: &mut StdRng) {
        self.inner.corrupt_state(rng);
    }

    fn on_corrupted(&mut self, ctx: &mut NodeCtx<'_, Self::Payload>) {
        self.call(ctx, |a, ctx| a.on_corrupted(ctx));
    }
}

/// Fleet-wide mobility tallies. The radio medium owns the mobility processes, so each
/// wrapper keeps plain local counters and adds them here when the simulation drops it.
#[derive(Debug, Default)]
pub struct MobilityTotals {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl MobilityTotals {
    /// The tallies flushed so far (complete once every wrapper has been dropped).
    pub fn timing(&self) -> Timing {
        // Relaxed: plain statistics, read after the owning simulation was dropped on
        // this thread; nothing else is published through them.
        Timing {
            calls: self.calls.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
            sampled_ns: self.sampled_ns.load(Ordering::Relaxed),
        }
    }
}

/// A mobility process with call counting and sampled timing of `position_at`.
pub struct CountedMobility {
    inner: BoxedMobility,
    timing: Timing,
    totals: Arc<MobilityTotals>,
}

impl CountedMobility {
    /// Wrap every process of a fleet, reporting into one shared `totals`.
    pub fn wrap_all(fleet: Vec<BoxedMobility>, totals: &Arc<MobilityTotals>) -> Vec<BoxedMobility> {
        fleet
            .into_iter()
            .map(|inner| {
                Box::new(CountedMobility {
                    inner,
                    timing: Timing::default(),
                    totals: Arc::clone(totals),
                }) as BoxedMobility
            })
            .collect()
    }
}

impl Mobility for CountedMobility {
    fn position_at(&mut self, t: SimTime) -> Vec2 {
        let inner = &mut self.inner;
        self.timing.measure(SAMPLE_EVERY, || inner.position_at(t))
    }
}

impl Drop for CountedMobility {
    fn drop(&mut self) {
        self.totals.calls.fetch_add(self.timing.calls, Ordering::Relaxed);
        self.totals.sampled.fetch_add(self.timing.sampled, Ordering::Relaxed);
        self.totals.sampled_ns.fetch_add(self.timing.sampled_ns, Ordering::Relaxed);
    }
}

/// A stabilization observer with every `on_epoch` / `on_fault` call counted and timed.
pub struct TimedProbe<O> {
    inner: O,
    /// Probe calls (`on_epoch` + `on_fault`) and their time.
    pub timing: Timing,
}

impl<O> TimedProbe<O> {
    /// Wrap `inner`.
    pub fn new(inner: O) -> Self {
        TimedProbe { inner, timing: Timing::default() }
    }
}

impl<O: StabilizationObserver> StabilizationObserver for TimedProbe<O> {
    fn probe_epoch(&self) -> SimDuration {
        self.inner.probe_epoch()
    }

    fn on_epoch(&mut self, ctx: &ProbeContext<'_>) {
        let inner = &mut self.inner;
        self.timing.measure(1, || inner.on_epoch(ctx));
    }

    fn on_fault(&mut self, kind: &FaultKind, ctx: &ProbeContext<'_>) {
        let inner = &mut self.inner;
        self.timing.measure(1, || inner.on_fault(kind, ctx));
    }

    fn finish(&mut self, end: SimTime) -> Option<ConvergenceStats> {
        self.inner.finish(end)
    }

    fn session_stats(&self) -> Vec<ConvergenceStats> {
        self.inner.session_stats()
    }

    fn session_recovering(&self, session: usize) -> bool {
        self.inner.session_recovering(session)
    }
}
