//! Fault injection: seeded fault plans and the stabilization-observer interface.
//!
//! The paper claims the SS-SPST family *self-stabilizes* — it converges back to a
//! correct multicast tree after arbitrary transient faults. This module supplies the
//! machinery to test that claim empirically instead of only by lemma:
//!
//! * a [`FaultPlanSpec`]: compact, copyable knobs a scenario carries (how many corruption
//!   bursts, crashes, blackouts, battery drains, over which window),
//! * a [`FaultPlan`]: the materialised, deterministic schedule of [`FaultEvent`]s derived
//!   from a spec plus the scenario's seed sequence (or built explicitly in tests),
//! * the [`StabilizationObserver`] trait and its [`ProbeContext`]: the hook through
//!   which a legitimacy probe (see `ssmcast-core`'s `StabilizationProbe`) watches a
//!   faulted run at configurable epochs and produces a
//!   [`ssmcast_metrics::ConvergenceStats`] block for the run report.
//!
//! Fault events flow through the same event queue as every packet and timer, so for a
//! fixed seed and plan a faulted run is exactly as reproducible as a fault-free one:
//! same seed + same plan ⇒ byte-identical [`crate::SimReport`].

use crate::node::{GroupRole, NodeId};
use crate::snapshot::TopologySnapshot;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use ssmcast_dessim::{SeedSequence, SimDuration, SimTime};
use ssmcast_metrics::ConvergenceStats;

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Transient state corruption: the runtime calls the node agent's
    /// [`crate::agent::ProtocolAgent::corrupt_state`] hook, scrambling its protocol
    /// variables (tree pointers, costs, soft state) with the node's own seeded RNG.
    Corrupt {
        /// The node whose agent state is corrupted.
        node: NodeId,
    },
    /// Node crash: the node stops transmitting, receiving and running timers. If
    /// `down_for` is finite it rejoins after that long (its agent is restarted with
    /// whatever stale state it held — a classic transient fault).
    Crash {
        /// The crashing node.
        node: NodeId,
        /// Downtime before the automatic rejoin.
        down_for: SimDuration,
    },
    /// Rejoin of a previously crashed node (scheduled internally by a
    /// [`FaultKind::Crash`]; can also be planned explicitly).
    Rejoin {
        /// The node coming back up.
        node: NodeId,
    },
    /// Link blackout: for `duration`, the radio medium delivers nothing to or from this
    /// node (deep fade / jamming). Unlike a crash the node keeps running its timers and
    /// burning transmit energy into the void.
    Blackout {
        /// The node whose links go dark.
        node: NodeId,
        /// How long the blackout lasts.
        duration: SimDuration,
    },
    /// Battery drain spike: `joules` are removed from the node's battery at once (a
    /// sensor burst, a co-located application). Only observable when the scenario runs
    /// with finite battery capacities.
    Drain {
        /// The drained node.
        node: NodeId,
        /// Energy removed, joules.
        joules: f64,
    },
}

impl FaultKind {
    /// The node this fault targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultKind::Corrupt { node }
            | FaultKind::Crash { node, .. }
            | FaultKind::Rejoin { node }
            | FaultKind::Blackout { node, .. }
            | FaultKind::Drain { node, .. } => node,
        }
    }
}

/// A fault scheduled at an absolute simulated time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Scenario-level fault knobs: a compact, copyable description of a seeded fault
/// schedule. [`FaultPlan::from_spec`] turns it into concrete events using the scenario's
/// seed sequence, so two runs with the same scenario produce the same schedule.
/// Crashes, blackouts and drains never target the multicast source; corruption may hit
/// any node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanSpec {
    /// Number of corruption bursts. Each burst corrupts a seeded random subset of nodes
    /// at one instant.
    pub corruption_bursts: u32,
    /// Fraction of nodes corrupted per burst, in `[0, 1]`.
    pub corruption_fraction: f64,
    /// Number of crash(+rejoin) faults.
    pub crashes: u32,
    /// Seconds a crashed node stays down before rejoining (`f64::INFINITY` for a
    /// permanent crash).
    pub crash_downtime_s: f64,
    /// Number of link-blackout windows.
    pub blackouts: u32,
    /// Seconds each blackout lasts.
    pub blackout_duration_s: f64,
    /// Number of battery-drain spikes.
    pub battery_drains: u32,
    /// Joules removed per drain spike.
    pub drain_joules: f64,
    /// Fault times are drawn uniformly (seeded) from `[window_start_s, window_end_s]`.
    pub window_start_s: f64,
    /// End of the fault window.
    pub window_end_s: f64,
    /// Interval between legitimacy probes while the plan is active, seconds.
    pub probe_epoch_s: f64,
}

impl FaultPlanSpec {
    /// No faults at all — the default; runs are byte-identical to pre-fault builds.
    pub fn none() -> Self {
        FaultPlanSpec {
            corruption_bursts: 0,
            corruption_fraction: 0.0,
            crashes: 0,
            crash_downtime_s: 10.0,
            blackouts: 0,
            blackout_duration_s: 5.0,
            battery_drains: 0,
            drain_joules: 0.0,
            window_start_s: 0.0,
            window_end_s: 0.0,
            probe_epoch_s: 0.5,
        }
    }

    /// `bursts` corruption bursts, each hitting `fraction` of the nodes, drawn from the
    /// window `[start_s, end_s]`.
    pub fn corruption(bursts: u32, fraction: f64, start_s: f64, end_s: f64) -> Self {
        FaultPlanSpec {
            corruption_bursts: bursts,
            corruption_fraction: fraction.clamp(0.0, 1.0),
            window_start_s: start_s,
            window_end_s: end_s.max(start_s),
            ..Self::none()
        }
    }

    /// A mixed stress plan: corruption bursts plus crashes and blackouts in one window.
    pub fn stress(start_s: f64, end_s: f64) -> Self {
        FaultPlanSpec {
            corruption_bursts: 2,
            corruption_fraction: 0.3,
            crashes: 2,
            crash_downtime_s: 10.0,
            blackouts: 2,
            blackout_duration_s: 5.0,
            window_start_s: start_s,
            window_end_s: end_s.max(start_s),
            ..Self::none()
        }
    }

    /// True if the spec schedules at least one fault event.
    pub fn has_faults(&self) -> bool {
        (self.corruption_bursts > 0 && self.corruption_fraction > 0.0)
            || self.crashes > 0
            || self.blackouts > 0
            || self.battery_drains > 0
    }
}

impl Default for FaultPlanSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// A concrete, time-sorted schedule of fault events for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one fault at `at`; keeps the plan usable as a fluent builder in tests.
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Add one fault at `at`.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        // Stable, so simultaneous events (a burst) keep their insertion order.
        self.events.sort_by_key(|e| e.at);
    }

    /// Append without re-sorting; [`Self::from_spec`] batches pushes and sorts once.
    fn push_unsorted(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// The scheduled events, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Materialise a spec into a deterministic schedule for a network of `n_nodes`
    /// nodes, drawing every time and target from the dedicated `"faults"` seed stream.
    /// The same `(spec, n_nodes, seeds)` triple always yields the same plan.
    pub fn from_spec(spec: &FaultPlanSpec, n_nodes: usize, seeds: &SeedSequence) -> Self {
        let mut plan = FaultPlan::new();
        if n_nodes == 0 || !spec.has_faults() {
            return plan;
        }
        let mut rng = seeds.stream("faults");
        let draw_time = |rng: &mut StdRng| {
            let lo = spec.window_start_s.max(0.0);
            let hi = spec.window_end_s.max(lo);
            let t = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            SimTime::from_secs_f64(t)
        };
        // Crashes, blackouts and drains spare the multicast source (node 0 by convention
        // in the harness) by drawing from nodes 1..; corruption may hit any node.
        let draw_node = |rng: &mut StdRng| {
            let lo = usize::from(n_nodes > 1);
            NodeId(rng.gen_range(lo..n_nodes) as u32)
        };
        for _ in 0..spec.corruption_bursts {
            let at = draw_time(&mut rng);
            let k = ((spec.corruption_fraction * n_nodes as f64).ceil() as usize).clamp(1, n_nodes);
            // Seeded distinct subset: partial Fisher–Yates over the id range.
            let mut ids: Vec<u32> = (0..n_nodes as u32).collect();
            for i in 0..k {
                let j = rng.gen_range(i..ids.len());
                ids.swap(i, j);
            }
            let mut burst: Vec<u32> = ids[..k].to_vec();
            burst.sort_unstable();
            for id in burst {
                plan.push_unsorted(at, FaultKind::Corrupt { node: NodeId(id) });
            }
        }
        for _ in 0..spec.crashes {
            let at = draw_time(&mut rng);
            let node = draw_node(&mut rng);
            let down_for = if spec.crash_downtime_s.is_finite() {
                SimDuration::from_secs_f64(spec.crash_downtime_s.max(0.0))
            } else {
                SimDuration::MAX
            };
            plan.push_unsorted(at, FaultKind::Crash { node, down_for });
        }
        for _ in 0..spec.blackouts {
            let at = draw_time(&mut rng);
            let node = draw_node(&mut rng);
            let duration = SimDuration::from_secs_f64(spec.blackout_duration_s.max(0.0));
            plan.push_unsorted(at, FaultKind::Blackout { node, duration });
        }
        for _ in 0..spec.battery_drains {
            let at = draw_time(&mut rng);
            let node = draw_node(&mut rng);
            plan.push_unsorted(at, FaultKind::Drain { node, joules: spec.drain_joules.max(0.0) });
        }
        plan.events.sort_by_key(|e| e.at);
        plan
    }
}

/// A scrambled parent/upstream pointer for
/// [`crate::agent::ProtocolAgent::corrupt_state`] implementations: `None` a third of
/// the time, otherwise an arbitrary node id — which may well not exist in the network;
/// recovering from that too is what self-stabilization means. Shared so every
/// protocol's corruption draws from the same distribution.
pub fn scrambled_parent(rng: &mut StdRng) -> Option<NodeId> {
    match rng.gen_range(0..3u32) {
        0 => None,
        _ => Some(NodeId(u32::from(rng.gen::<u16>()))),
    }
}

/// One multicast session's state as seen by a stabilization probe: each node's
/// self-reported tree parent *in that session's protocol instance*, the session's
/// current (churn-updated) membership table, and the session's own running counters —
/// so per-session convergence accounting charges a recovery window with that session's
/// traffic and energy, not the whole network's.
pub struct SessionProbe<'a> {
    /// Per-node tree parent as reported by this session's agents
    /// ([`crate::agent::ProtocolAgent::tree_parent`], `None` for protocols without a
    /// rooted structure).
    pub parents: &'a [Option<NodeId>],
    /// Per-node role in this session at the probe instant (membership churn applied).
    pub roles: &'a [GroupRole],
    /// Control packets this session's instances transmitted so far.
    pub control_packets: u64,
    /// Data packet transmissions for this session so far.
    pub data_packets: u64,
    /// Energy attributed to this session's frames so far, joules.
    pub energy_j: f64,
}

/// The state a stabilization observer sees at a probe epoch or fault instant.
///
/// `sessions` carries one [`SessionProbe`] per concurrent multicast session (parents +
/// current roles); `alive[i]` is false while node `i` is crashed or battery-depleted,
/// and `blacked_out[i]` is true while its links are in a blackout (the node itself
/// keeps running — the distinction matters to legitimacy predicates: a dead member is
/// exempt from coverage, a blacked-out one is merely unserved). The counters are
/// network-wide running totals, so an observer can difference them across instants to
/// charge messages and energy to a recovery window.
pub struct ProbeContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Frozen positions + unit-disc connectivity at `now` (maximum radio range).
    pub snapshot: &'a TopologySnapshot,
    /// Per-session parents + roles, index-aligned with the run's sessions.
    pub sessions: &'a [SessionProbe<'a>],
    /// Per-node liveness (false while crashed or depleted).
    pub alive: &'a [bool],
    /// Per-node link-blackout state (true while the node's links are dark).
    pub blacked_out: &'a [bool],
    /// Control packets transmitted so far, network-wide.
    pub control_packets: u64,
    /// Data packet transmissions so far, network-wide.
    pub data_packets: u64,
    /// Energy consumed so far, network-wide, joules.
    pub energy_j: f64,
}

/// A consumer of probe epochs and fault notifications during a simulation run.
///
/// Implemented by `ssmcast-core`'s `StabilizationProbe` (legitimacy predicate +
/// convergence accounting); the runtime only defines the interface so the protocol
/// layers above can plug in richer predicates without the substrate knowing them.
pub trait StabilizationObserver {
    /// The probing cadence this observer wants. The run loop drives epochs at exactly
    /// this interval, so the cadence an observer records in its own stats and the one
    /// actually probed can never disagree. Zero is sanitised to the 1 s default.
    fn probe_epoch(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    /// Called at every probe epoch (after all events up to that instant dispatched).
    fn on_epoch(&mut self, ctx: &ProbeContext<'_>);

    /// Called immediately after a fault was applied.
    fn on_fault(&mut self, kind: &FaultKind, ctx: &ProbeContext<'_>);

    /// Called once when the run ends; returns the stats to embed in the report.
    fn finish(&mut self, end: SimTime) -> Option<ConvergenceStats>;

    /// Per-session convergence stats, index-aligned with the run's sessions. Only
    /// meaningful after [`Self::finish`]; the default (empty) means the observer does
    /// not break its measurements down per session and the runtime attaches nothing to
    /// the per-group report blocks.
    fn session_stats(&self) -> Vec<ConvergenceStats> {
        Vec::new()
    }

    /// True while `session` is inside an open recovery episode (its legitimacy
    /// predicate was observed broken and has not been seen to hold again). The runtime
    /// polls this after every epoch and fault notification to bucket control
    /// bytes-on-air into steady-state vs recovery phases for the `SilenceStats`
    /// report block. The default (always `false`) attributes everything to the
    /// steady-state phase — correct for observers that do not track episodes.
    fn session_recovering(&self, _session: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_materialises_to_an_empty_plan() {
        let spec = FaultPlanSpec::none();
        assert!(!spec.has_faults());
        let plan = FaultPlan::from_spec(&spec, 50, &SeedSequence::new(1));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn corruption_bursts_hit_distinct_nodes_at_one_instant() {
        let spec = FaultPlanSpec::corruption(1, 0.4, 10.0, 20.0);
        let plan = FaultPlan::from_spec(&spec, 10, &SeedSequence::new(7));
        assert_eq!(plan.len(), 4, "ceil(0.4 × 10) nodes per burst");
        let t0 = plan.events()[0].at;
        let mut nodes: Vec<NodeId> = plan.events().iter().map(|e| e.kind.node()).collect();
        assert!(plan.events().iter().all(|e| e.at == t0), "a burst is simultaneous");
        assert!(t0 >= SimTime::from_secs(10) && t0 <= SimTime::from_secs(20));
        nodes.dedup();
        assert_eq!(nodes.len(), 4, "burst targets are distinct");
    }

    #[test]
    fn plans_are_deterministic_per_seed_and_differ_across_seeds() {
        let spec = FaultPlanSpec::stress(5.0, 50.0);
        let a = FaultPlan::from_spec(&spec, 30, &SeedSequence::new(42));
        let b = FaultPlan::from_spec(&spec, 30, &SeedSequence::new(42));
        assert_eq!(a, b);
        let c = FaultPlan::from_spec(&spec, 30, &SeedSequence::new(43));
        assert_ne!(a, c, "a different seed draws a different schedule");
    }

    #[test]
    fn spared_source_is_never_crashed_blacked_out_or_drained() {
        let spec = FaultPlanSpec {
            crashes: 20,
            blackouts: 20,
            battery_drains: 20,
            drain_joules: 1.0,
            window_end_s: 100.0,
            ..FaultPlanSpec::none()
        };
        let plan = FaultPlan::from_spec(&spec, 5, &SeedSequence::new(3));
        for e in plan.events() {
            assert_ne!(e.kind.node(), NodeId(0), "source must be spared: {e:?}");
        }
    }

    #[test]
    fn explicit_plans_sort_by_time() {
        let plan = FaultPlan::new()
            .with(SimTime::from_secs(9), FaultKind::Corrupt { node: NodeId(1) })
            .with(SimTime::from_secs(3), FaultKind::Rejoin { node: NodeId(2) });
        assert_eq!(plan.events()[0].at, SimTime::from_secs(3));
        assert_eq!(plan.events()[1].at, SimTime::from_secs(9));
    }

    #[test]
    fn infinite_downtime_becomes_a_permanent_crash() {
        let spec = FaultPlanSpec {
            crashes: 1,
            crash_downtime_s: f64::INFINITY,
            window_end_s: 10.0,
            ..FaultPlanSpec::none()
        };
        let plan = FaultPlan::from_spec(&spec, 4, &SeedSequence::new(9));
        match plan.events()[0].kind {
            FaultKind::Crash { down_for, .. } => assert_eq!(down_for, SimDuration::MAX),
            ref other => panic!("expected a crash, got {other:?}"),
        }
    }
}
