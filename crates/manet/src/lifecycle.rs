//! Energy lifecycle: radio duty-cycling schedules, continuous idle/sleep drain, and
//! distance-based TX power control.
//!
//! The paper's energy model stops at per-packet TX/RX/overhear tallies on an effectively
//! unlimited battery. Duty-cycle-aware and minimum-energy multicast work (Han et al.)
//! shows the levers that actually differentiate energy-aware protocols are elsewhere:
//! idle listening drains a radio continuously whether or not packets flow, sleep
//! schedules trade delivery opportunities for lifetime, transmission power should cover
//! the farthest *intended* receiver rather than the nominal maximum, and a drained
//! battery is a permanent node death. This module holds the configuration and the
//! per-node radio schedule; the runtime wires them into liveness and the
//! [`ssmcast_metrics::LifetimeStats`] report block.
//!
//! # The radio state machine
//!
//! At any instant a node's radio is in one of three states:
//!
//! * **awake** — actively transmitting or receiving a frame (the per-packet energies of
//!   [`crate::energy::EnergyModel`] apply);
//! * **idle-listen** — powered and listening but with no frame on the air; drains
//!   [`LifecycleConfig::idle_listen_w`] watts continuously;
//! * **sleep** — powered down per the duty-cycle schedule; drains only
//!   [`LifecycleConfig::sleep_w`] watts, and **misses every delivery** that arrives
//!   while it lasts (no reception, no reception energy).
//!
//! The duty-cycle schedule is periodic and seeded per node: node `i` is scheduled awake
//! for the first `awake_fraction` of every `period`, shifted by a seeded per-node phase
//! so the network does not sleep in lock-step. The node's *processor* keeps running
//! while the radio sleeps — timers still fire, and a transmission wakes the radio for
//! its own duration (sender-initiated wakeup, as in duty-cycled MAC protocols) — only
//! inbound frames are lost.
//!
//! Everything here defaults **off**: with [`LifecycleConfig::default`] the schedule is
//! always-awake, continuous drain is zero, TX power is priced by the requested range,
//! and runs are byte-identical to builds that predate this module.

use crate::node::NodeId;
use serde::{Deserialize, Serialize};
use ssmcast_dessim::{SeedSequence, SimDuration, SimTime};

/// A periodic radio duty-cycle schedule shared by every node (phases differ per node).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DutyCycleConfig {
    /// Schedule period. Each period starts with the awake window.
    pub period: SimDuration,
    /// Fraction of each period the radio is awake, in `(0, 1]`. `1.0` disables the
    /// schedule (the radio never sleeps).
    pub awake_fraction: f64,
}

impl DutyCycleConfig {
    /// An always-awake radio — the paper's model, and the default.
    pub fn off() -> Self {
        DutyCycleConfig { period: SimDuration::from_secs(1), awake_fraction: 1.0 }
    }

    /// A schedule awake for `awake_fraction` of every `period` (fraction clamped into
    /// `(0, 1]` — a radio that never wakes could not even be scheduled to transmit).
    pub fn new(period: SimDuration, awake_fraction: f64) -> Self {
        DutyCycleConfig { period, awake_fraction: awake_fraction.clamp(0.01, 1.0) }
    }

    /// True when the schedule actually puts radios to sleep.
    pub fn is_on(&self) -> bool {
        self.awake_fraction < 1.0 && !self.period.is_zero()
    }

    /// Awake window length in nanoseconds.
    fn awake_ns(&self) -> u64 {
        let p = self.period.as_nanos() as f64;
        (p * self.awake_fraction.clamp(0.0, 1.0)).round() as u64
    }
}

impl Default for DutyCycleConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Energy-lifecycle knobs for one run. The default is the paper's model: no duty
/// cycling, no continuous drain, TX priced by the requested range.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// Radio duty-cycle schedule (off by default).
    pub duty_cycle: DutyCycleConfig,
    /// Continuous drain while the radio is scheduled awake but idle, watts.
    pub idle_listen_w: f64,
    /// Continuous drain while the radio sleeps, watts (typically orders of magnitude
    /// below [`Self::idle_listen_w`]).
    pub sleep_w: f64,
    /// Distance-based TX power control: when true, every transmission is priced by the
    /// distance to the *farthest receiver it actually covers* (never below the
    /// zero-range electronics floor of [`crate::energy::EnergyModel::tx_energy`])
    /// instead of the requested range. Protocols whose trees use short links — the
    /// energy-aware SS-SPST-E in particular — gain a real energy edge from opting in.
    /// Receiver sets, delays and loss draws are unchanged; only the energy differs.
    pub tx_power_control: bool,
    /// Duty-aware TX pricing refinement: when true *and* [`Self::tx_power_control`] is
    /// on *and* a duty-cycle schedule is active, receivers that are provably asleep at
    /// the delivery instant (the schedule is seeded, hence knowable by the sender) are
    /// excluded from the pricing set — a broadcast whose only awake receiver is nearby
    /// is priced at that receiver, not at the farthest sleeper that would have dropped
    /// the frame anyway. Off by default: default runs price exactly as before, byte for
    /// byte. Receiver sets, delays and loss draws are never affected; only the energy.
    pub duty_aware_pricing: bool,
    /// Cadence at which the runtime samples the lifetime curves (alive nodes,
    /// cumulative delivery ratio) while lifetime tracking is active. Zero falls back to
    /// one second.
    pub sample_epoch: SimDuration,
}

impl LifecycleConfig {
    /// Everything off — byte-identical to builds without the lifecycle subsystem.
    pub fn off() -> Self {
        LifecycleConfig {
            duty_cycle: DutyCycleConfig::off(),
            idle_listen_w: 0.0,
            sleep_w: 0.0,
            tx_power_control: false,
            duty_aware_pricing: false,
            sample_epoch: SimDuration::from_secs(1),
        }
    }

    /// The same configuration with a duty-cycle schedule.
    pub fn with_duty_cycle(mut self, period: SimDuration, awake_fraction: f64) -> Self {
        self.duty_cycle = DutyCycleConfig::new(period, awake_fraction);
        self
    }

    /// The same configuration with continuous idle-listen and sleep drains.
    pub fn with_idle_power(mut self, idle_listen_w: f64, sleep_w: f64) -> Self {
        self.idle_listen_w = idle_listen_w.max(0.0);
        self.sleep_w = sleep_w.max(0.0);
        self
    }

    /// The same configuration with distance-based TX power control switched on or off.
    pub fn with_tx_power_control(mut self, enabled: bool) -> Self {
        self.tx_power_control = enabled;
        self
    }

    /// The same configuration with duty-aware TX pricing switched on or off (only
    /// effective when TX power control and a duty-cycle schedule are both active).
    pub fn with_duty_aware_pricing(mut self, enabled: bool) -> Self {
        self.duty_aware_pricing = enabled;
        self
    }

    /// True when batteries drain between packets (idle listening, or sleeping with a
    /// non-zero sleep current).
    pub fn has_continuous_drain(&self) -> bool {
        self.idle_listen_w > 0.0 || self.sleep_w > 0.0
    }

    /// True when any lifecycle mechanism is engaged (duty cycling, continuous drain or
    /// TX power control) — the knob that decides whether a run can possibly diverge
    /// from the pre-lifecycle build.
    pub fn is_active(&self) -> bool {
        self.duty_cycle.is_on() || self.has_continuous_drain() || self.tx_power_control
    }
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The materialised per-node duty-cycle schedule for one run: a shared period and awake
/// window plus one seeded phase offset per node. Fully determined by
/// `(config, n_nodes, seeds)` — two runs with the same scenario seed sleep and wake at
/// exactly the same instants.
#[derive(Clone, Debug)]
pub struct DutySchedule {
    period_ns: u64,
    awake_ns: u64,
    /// Per-node phase shift in nanoseconds, each in `[0, period)`. Empty when the
    /// schedule is off (every node always awake).
    phases: Vec<u64>,
}

impl DutySchedule {
    /// A schedule that never sleeps (duty cycling off).
    pub fn always_awake() -> Self {
        DutySchedule { period_ns: 1, awake_ns: 1, phases: Vec::new() }
    }

    /// Materialise `config` for `n` nodes, drawing each node's phase from the dedicated
    /// `"duty-cycle"` seed stream.
    pub fn from_seeds(config: &DutyCycleConfig, n: usize, seeds: &SeedSequence) -> Self {
        if !config.is_on() {
            return Self::always_awake();
        }
        use rand::Rng;
        let period_ns = config.period.as_nanos().max(1);
        let awake_ns = config.awake_ns().clamp(1, period_ns);
        let mut rng = seeds.stream("duty-cycle");
        let phases =
            (0..n).map(|_| ((rng.gen::<f64>() * period_ns as f64) as u64) % period_ns).collect();
        DutySchedule { period_ns, awake_ns, phases }
    }

    /// True when the schedule actually sleeps (phases were materialised).
    pub fn is_on(&self) -> bool {
        !self.phases.is_empty()
    }

    /// A schedule with explicit per-node phases — for tests that need a hand-built
    /// geometry of wake windows rather than seeded phases. `period_ns` is clamped to
    /// ≥ 1 and `awake_ns` into `[1, period_ns]`; phases are reduced mod the period.
    pub fn with_phases(period_ns: u64, awake_ns: u64, phases: Vec<u64>) -> Self {
        let period_ns = period_ns.max(1);
        let awake_ns = awake_ns.clamp(1, period_ns);
        let phases = phases.into_iter().map(|p| p % period_ns).collect();
        DutySchedule { period_ns, awake_ns, phases }
    }

    /// Length of every node's awake window within one period.
    pub fn awake_len(&self) -> SimDuration {
        SimDuration::from_nanos(self.awake_ns)
    }

    /// The shared schedule period (1 ns for an always-awake schedule).
    pub fn period(&self) -> SimDuration {
        SimDuration::from_nanos(self.period_ns)
    }

    /// True while node `n`'s radio is scheduled awake at `t`.
    pub fn is_awake(&self, n: NodeId, t: SimTime) -> bool {
        if self.phases.is_empty() {
            return true;
        }
        let phase = self.phases[n.index()];
        ((t.as_nanos() as u128 + phase as u128) % self.period_ns as u128) < self.awake_ns as u128
    }

    /// The earliest instant `>= t` at which node `n`'s radio is scheduled awake: `t`
    /// itself when the node is already awake, otherwise the start of its next awake
    /// window. The returned instant always satisfies [`Self::is_awake`], and no awake
    /// instant exists strictly between `t` and it — the query duty-cycle-aware
    /// forwarding uses to defer a transmission into a receiver's wake window instead
    /// of losing the frame to sleep.
    pub fn next_awake_at(&self, n: NodeId, t: SimTime) -> SimTime {
        if self.phases.is_empty() {
            return t;
        }
        let phase = self.phases[n.index()];
        let pos = ((t.as_nanos() as u128 + phase as u128) % self.period_ns as u128) as u64;
        if pos < self.awake_ns {
            return t;
        }
        t + SimDuration::from_nanos(self.period_ns - pos)
    }

    /// Total scheduled-awake nanoseconds in `[0, t)` for a given phase.
    fn awake_ns_up_to(&self, phase: u64, t: u64) -> u128 {
        let period = self.period_ns as u128;
        let awake = self.awake_ns as u128;
        let shifted = t as u128 + phase as u128;
        let at = |s: u128| (s / period) * awake + (s % period).min(awake);
        at(shifted) - at(phase as u128)
    }

    /// Time node `n`'s radio is scheduled awake within `[from, to)` (the whole span
    /// when the schedule is off; zero when `to <= from`). Inlined across crates: the
    /// lifetime sampler's fleet-wide accrual pass calls it once per node.
    #[inline]
    pub fn awake_between(&self, n: NodeId, from: SimTime, to: SimTime) -> SimDuration {
        if to <= from {
            return SimDuration::ZERO;
        }
        if self.phases.is_empty() {
            return to.saturating_since(from);
        }
        let phase = self.phases[n.index()];
        let ns =
            self.awake_ns_up_to(phase, to.as_nanos()) - self.awake_ns_up_to(phase, from.as_nanos());
        SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fully_off() {
        let lc = LifecycleConfig::default();
        assert!(!lc.duty_cycle.is_on());
        assert!(!lc.has_continuous_drain());
        assert!(!lc.is_active());
        assert_eq!(lc, LifecycleConfig::off());
    }

    #[test]
    fn builders_engage_each_mechanism() {
        let lc = LifecycleConfig::off().with_duty_cycle(SimDuration::from_secs(1), 0.5);
        assert!(lc.duty_cycle.is_on() && lc.is_active());
        let lc = LifecycleConfig::off().with_idle_power(0.01, 0.001);
        assert!(lc.has_continuous_drain() && lc.is_active());
        let lc = LifecycleConfig::off().with_tx_power_control(true);
        assert!(lc.is_active() && !lc.has_continuous_drain());
        // Negative powers clamp to zero, fraction clamps into (0, 1].
        let lc = LifecycleConfig::off().with_idle_power(-1.0, -2.0);
        assert!(!lc.has_continuous_drain());
        assert_eq!(DutyCycleConfig::new(SimDuration::from_secs(1), 5.0).awake_fraction, 1.0);
        assert!(DutyCycleConfig::new(SimDuration::from_secs(1), -0.3).awake_fraction > 0.0);
    }

    #[test]
    fn always_awake_schedule_never_sleeps() {
        let sched = DutySchedule::always_awake();
        assert!(!sched.is_on());
        for secs in [0u64, 1, 17, 3600] {
            assert!(sched.is_awake(NodeId(0), SimTime::from_secs(secs)));
        }
        let d = sched.awake_between(NodeId(0), SimTime::from_secs(3), SimTime::from_secs(10));
        assert_eq!(d, SimDuration::from_secs(7));
    }

    #[test]
    fn off_config_materialises_to_always_awake() {
        let sched = DutySchedule::from_seeds(&DutyCycleConfig::off(), 8, &SeedSequence::new(1));
        assert!(!sched.is_on());
    }

    #[test]
    fn awake_fraction_matches_over_long_windows() {
        let cfg = DutyCycleConfig::new(SimDuration::from_millis(500), 0.25);
        let sched = DutySchedule::from_seeds(&cfg, 4, &SeedSequence::new(9));
        assert!(sched.is_on());
        for i in 0..4u32 {
            let awake = sched
                .awake_between(NodeId(i), SimTime::ZERO, SimTime::from_secs(100))
                .as_secs_f64();
            assert!((awake - 25.0).abs() < 0.5 + 1e-9, "node {i}: awake {awake}s of 100s");
        }
    }

    #[test]
    fn awake_between_integrates_the_indicator() {
        let cfg = DutyCycleConfig::new(SimDuration::from_millis(200), 0.4);
        let sched = DutySchedule::from_seeds(&cfg, 3, &SeedSequence::new(4));
        // Numerically integrate is_awake at 1 ms resolution and compare.
        for i in 0..3u32 {
            let n = NodeId(i);
            let from = SimTime::ZERO + SimDuration::from_millis(137);
            let to = SimTime::ZERO + SimDuration::from_millis(2_951);
            let mut acc = 0u64;
            let mut t = from;
            while t < to {
                if sched.is_awake(n, t) {
                    acc += 1;
                }
                t += SimDuration::from_millis(1);
            }
            let integral = sched.awake_between(n, from, to).as_millis_f64();
            assert!(
                (integral - acc as f64).abs() <= 1.0,
                "node {i}: integral {integral} ms vs sampled {acc} ms"
            );
        }
    }

    #[test]
    fn phases_desynchronise_nodes_but_share_the_pattern_shape() {
        let cfg = DutyCycleConfig::new(SimDuration::from_secs(1), 0.5);
        let sched = DutySchedule::from_seeds(&cfg, 16, &SeedSequence::new(7));
        // With 16 seeded phases over a half-duty schedule, some instant separates nodes.
        let t = SimTime::ZERO + SimDuration::from_millis(250);
        let awake = (0..16u32).filter(|&i| sched.is_awake(NodeId(i), t)).count();
        assert!(awake > 0 && awake < 16, "phases must desynchronise the fleet: {awake}/16");
    }

    #[test]
    fn duty_aware_pricing_defaults_off_and_composes() {
        let lc = LifecycleConfig::off();
        assert!(!lc.duty_aware_pricing);
        let lc = lc.with_tx_power_control(true).with_duty_aware_pricing(true);
        assert!(lc.duty_aware_pricing && lc.tx_power_control);
    }

    #[test]
    fn next_awake_at_is_identity_for_always_awake() {
        let sched = DutySchedule::always_awake();
        let t = SimTime::ZERO + SimDuration::from_millis(1234);
        assert_eq!(sched.next_awake_at(NodeId(0), t), t);
    }

    #[test]
    fn next_awake_at_defers_into_the_next_window() {
        // Period 100 ms, awake first 40 ms, zero phase: asleep in [40, 100) ms.
        let sched = DutySchedule::with_phases(100_000_000, 40_000_000, vec![0]);
        let n = NodeId(0);
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        assert_eq!(sched.next_awake_at(n, at(10)), at(10), "already awake");
        assert_eq!(sched.next_awake_at(n, at(40)), at(100), "just fell asleep");
        assert_eq!(sched.next_awake_at(n, at(99)), at(100));
        assert_eq!(sched.next_awake_at(n, at(100)), at(100), "window boundary is awake");
    }

    #[test]
    fn next_awake_at_agrees_with_is_awake_scanning() {
        let cfg = DutyCycleConfig::new(SimDuration::from_millis(300), 0.35);
        let sched = DutySchedule::from_seeds(&cfg, 5, &SeedSequence::new(11));
        for i in 0..5u32 {
            let n = NodeId(i);
            for k in 0..40u64 {
                let t = SimTime::ZERO + SimDuration::from_millis(k * 37 + 5);
                let wake = sched.next_awake_at(n, t);
                assert!(wake >= t);
                assert!(sched.is_awake(n, wake), "node {i}: result must be awake");
                // Scan at 1 ms resolution: no awake instant strictly before `wake`.
                let mut s = t;
                while s < wake {
                    assert!(!sched.is_awake(n, s), "node {i}: awake instant before result");
                    s += SimDuration::from_millis(1);
                }
            }
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = DutyCycleConfig::new(SimDuration::from_millis(700), 0.3);
        let a = DutySchedule::from_seeds(&cfg, 10, &SeedSequence::new(42));
        let b = DutySchedule::from_seeds(&cfg, 10, &SeedSequence::new(42));
        let c = DutySchedule::from_seeds(&cfg, 10, &SeedSequence::new(43));
        let mut diverged = false;
        for i in 0..10u32 {
            for k in 0..50u64 {
                let t = SimTime::ZERO + SimDuration::from_millis(k * 97);
                assert_eq!(a.is_awake(NodeId(i), t), b.is_awake(NodeId(i), t));
                diverged |= a.is_awake(NodeId(i), t) != c.is_awake(NodeId(i), t);
            }
        }
        assert!(diverged, "a different seed draws different phases");
    }
}
