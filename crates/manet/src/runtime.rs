//! The network runtime: wires protocol agents, mobility, radio, energy accounting and
//! traffic generation onto the discrete-event engine and produces a [`SimReport`].
//!
//! Since the multi-session refactor the runtime hosts **N concurrent multicast
//! sessions** over one shared radio medium: each node runs one protocol-agent instance
//! per session, frames are dispatched to the instance of the session that sent them,
//! and each session carries its own traffic trace, churn-updated membership table and
//! attributed energy. A single-session setup reproduces the original runtime event for
//! event (and byte for byte in its report).

use crate::agent::ProtocolAgent;
use crate::battery::Battery;
use crate::energy::RadioConfig;
use crate::engine::EngineConfig;
use crate::faults::{FaultKind, FaultPlan, StabilizationObserver};
use crate::geometry::Vec2;
use crate::harvest::{HarvestConfig, HarvestPlan};
use crate::lifecycle::{DutySchedule, LifecycleConfig};
use crate::mac::MacConfig;
use crate::medium::{MediumConfig, RadioMedium};
use crate::mobility::BoxedMobility;
use crate::node::{GroupRole, NodeId};
use crate::packet::{DataTag, Packet, PacketClass};
use crate::report::{GroupAccounting, SimReport, Trace};
use crate::session::{MembershipChange, SessionSetup};
use crate::silence::SilenceConfig;
use crate::traffic::TrafficConfig;
use semantics::{observe, Curves, Key, NodeCore, ProbeScratch, Seam};
use ssmcast_dessim::{EventId, SeedSequence, SimDuration, SimTime, Simulator};
use ssmcast_metrics::{
    EngineStats, LifetimeStats, MetricsConfig, SessionSilence, SilenceStats,
    RESIDUAL_HISTOGRAM_BINS,
};

mod semantics;
mod shard;

/// Static setup for one simulation run.
#[derive(Clone, Debug)]
pub struct SimSetup {
    /// Radio and energy configuration shared by all nodes.
    pub radio: RadioConfig,
    /// The concurrent multicast sessions (at least one): CBR flow + initial membership
    /// table + churn schedule each. Session `i`'s frames are dispatched to the `i`-th
    /// protocol instance on every node.
    pub sessions: Vec<SessionSetup>,
    /// Number of nodes in the network (every session's role table has this length).
    pub n_nodes: usize,
    /// Battery capacity per node in joules (`f64::INFINITY` for the paper's experiments).
    pub battery_capacity_j: f64,
    /// Energy-lifecycle knobs: radio duty-cycling, continuous idle/sleep drain and
    /// distance-based TX power control. [`LifecycleConfig::off`] (the default) keeps
    /// runs byte-identical to pre-lifecycle builds.
    pub lifecycle: LifecycleConfig,
    /// Medium-access policy deciding when pending broadcasts hit the air. The default
    /// ([`MacConfig::default`]: random jitter, stats off) reproduces pre-MAC-layer runs
    /// byte-identically.
    pub mac: MacConfig,
    /// Seed sequence for loss sampling and per-node protocol jitter.
    pub seeds: SeedSequence,
    /// Radio medium configuration: position-cache epoch and neighbour-query mode.
    pub medium: MediumConfig,
    /// Scheduled fault events (empty for the paper's fault-free experiments). Injected
    /// through the event queue, so a `(seed, plan)` pair fully determines the run.
    pub faults: FaultPlan,
    /// Engine selection: the classic sequential loop ([`EngineConfig::default`],
    /// byte-identical to earlier builds) or the region-sharded parallel engine.
    pub engine: EngineConfig,
    /// Beacon-suppression knobs for the self-stabilizing agents. [`SilenceConfig::off`]
    /// (the default) keeps runs byte-identical to always-on beaconing; any enabled
    /// configuration makes the runtime split control bytes-on-air into steady-state vs
    /// recovery phases and attach a `SilenceStats` block to the report.
    pub silence: SilenceConfig,
    /// Report-accumulation mode: exact tracking (the default, byte-identical to
    /// earlier builds) or streaming, whose sketches have fixed budgets so their
    /// footprint does not grow with event count.
    pub metrics: MetricsConfig,
    /// Energy-harvesting knobs. [`HarvestConfig::off`] (the default) keeps battery
    /// depletion permanent; enabled harvesting turns depletion into a power-cycling
    /// episode. Harvest wakes are node-local, so both engines run them: sharded runs
    /// are byte-identical to the sequential engine at any shard count.
    pub harvest: HarvestConfig,
}

impl SimSetup {
    /// A single-session setup — the paper's shape, and the one every pre-multi-group
    /// call site used.
    pub fn single(
        radio: RadioConfig,
        traffic: TrafficConfig,
        roles: Vec<GroupRole>,
        battery_capacity_j: f64,
        seeds: SeedSequence,
        medium: MediumConfig,
        faults: FaultPlan,
    ) -> Self {
        let n_nodes = roles.len();
        SimSetup {
            radio,
            sessions: vec![SessionSetup::new(traffic, roles)],
            n_nodes,
            battery_capacity_j,
            lifecycle: LifecycleConfig::off(),
            mac: MacConfig::default(),
            seeds,
            medium,
            faults,
            engine: EngineConfig::default(),
            silence: SilenceConfig::off(),
            metrics: MetricsConfig::default(),
            harvest: HarvestConfig::off(),
        }
    }

    /// Number of nodes in the network.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of concurrent multicast sessions.
    pub fn n_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// True when the setup is genuinely multi-session or churns memberships — the runs
    /// whose reports carry a per-group breakdown.
    pub fn has_group_dynamics(&self) -> bool {
        self.sessions.len() > 1 || self.sessions.iter().any(|s| !s.churn.is_empty())
    }
}

/// Events flowing through the network simulation, on either engine.
#[derive(Debug)]
pub enum NetEvent<P> {
    /// A packet copy arrives at `rx`. `corrupted` receptions still cost energy but are not
    /// handed to the protocol.
    Deliver {
        /// Session whose protocol instances this frame belongs to.
        session: u16,
        /// Receiving node.
        rx: NodeId,
        /// The frame.
        packet: Packet<P>,
        /// Lost when the frame left the sender: to channel noise and, on the sequential
        /// engine (which evaluates carrier capture at send time), to collision.
        corrupted: bool,
        /// Transmission start (drives carrier capture and TDMA slot learning at the
        /// receiver).
        tx_start: SimTime,
        /// MAC state snapshotted at transmit time
        /// ([`crate::mac::MacPolicy::piggyback_row`]) and
        /// shared by every copy of the frame — TDMA's 2-hop claim table.
        piggyback: Option<std::sync::Arc<[u16]>>,
    },
    /// A protocol timer fires at `node`.
    Timer {
        /// Session whose instance armed the timer.
        session: u16,
        /// Owning node.
        node: NodeId,
        /// Protocol-defined timer class.
        kind: u64,
        /// Discriminator within the class.
        key: u64,
    },
    /// The CBR application at a session's source emits data packet `seq`.
    AppSend {
        /// The emitting session.
        session: u16,
        /// Application sequence number.
        seq: u64,
    },
    /// A scheduled membership change (join/leave churn) takes effect.
    Membership {
        /// The churned session.
        session: u16,
        /// The node joining or leaving.
        node: NodeId,
        /// Join or leave.
        change: MembershipChange,
    },
    /// An injected fault fires (see [`crate::faults`]). The `u64` is the fault's index
    /// in the plan; a crash-scheduled rejoin carries its crash's index.
    Fault(FaultKind, u64),
    /// A depleted, energy-harvesting node has banked its wake threshold: recharge its
    /// battery and bring it back to life (see [`crate::harvest`]).
    HarvestWake {
        /// The waking node.
        node: NodeId,
    },
    /// The MAC policy deferred a pending broadcast: retry channel access now.
    MacRetry(PendingFrame<P>),
}

/// A broadcast on its way through the MAC: requested by a protocol, not yet on the air.
#[derive(Debug)]
pub struct PendingFrame<P> {
    /// Session whose frame is pending.
    pub session: u16,
    /// The transmitting node.
    pub sender: NodeId,
    /// Control or data.
    pub class: PacketClass,
    /// Size on the wire, bytes.
    pub size_bytes: u32,
    /// Requested transmission range, metres (clamped once the frame is deferred).
    pub range_m: f64,
    /// Application-data tag, if the frame carries data.
    pub data: Option<DataTag>,
    /// Protocol payload, carried through deferrals.
    pub payload: P,
    /// Access attempt number (0 on the protocol's request, 1 on the first retry).
    pub attempt: u32,
    /// When the protocol requested the broadcast (for access-delay accounting).
    pub requested_at: SimTime,
}

/// A complete network simulation for one protocol.
pub struct NetworkSim<A: ProtocolAgent> {
    sim: Simulator<NetEvent<A::Payload>>,
    setup: SimSetup,
    medium: RadioMedium,
    /// Materialised per-node harvest rates (inert when harvesting is off).
    harvest: HarvestPlan,
    /// Every node's state and agents, indexed by node id. The sharded engine splits the
    /// agents into per-shard cores for a run and merges the shards back at teardown.
    core: NodeCore<A>,
    curves: Curves,
    probe: ProbeScratch,
}

/// The sequential engine's seam: one simulator queue in insertion order, the live radio
/// medium, the global loss stream, capture at send time and per-session energy sums.
struct Sequential<'a, P> {
    sim: &'a mut Simulator<NetEvent<P>>,
    medium: &'a mut RadioMedium,
    setup: &'a SimSetup,
    harvest: &'a HarvestPlan,
}

impl<'a, P> Seam<'a, P> for Sequential<'a, P> {
    const PER_NODE_ENERGY: bool = false;
    const PER_SENDER_LOSS: bool = false;
    const CAPTURE_AT_DELIVERY: bool = false;

    fn setup(&self) -> &'a SimSetup {
        self.setup
    }

    fn harvest(&self) -> &'a HarvestPlan {
        self.harvest
    }

    fn local(&self, node: NodeId) -> usize {
        node.index()
    }

    fn shard(&self, _node: NodeId) -> usize {
        0
    }

    fn schedule(&mut self, at: SimTime, _key: Key, ev: NetEvent<P>) -> EventId {
        self.sim.schedule_at(at, ev)
    }

    fn cancel(&mut self, id: EventId) {
        self.sim.cancel(id);
    }

    fn deliver(&mut self, at: SimTime, _key: Key, _rx: NodeId, ev: NetEvent<P>) {
        self.sim.schedule_at(at, ev);
    }

    fn position(&mut self, node: NodeId, t: SimTime) -> Vec2 {
        self.medium.position_of(node, t)
    }

    fn positions(&mut self, t: SimTime) -> &[Vec2] {
        self.medium.positions(t)
    }

    fn is_blacked_out(&self, node: NodeId, t: SimTime) -> bool {
        self.medium.is_blacked_out(node, t)
    }

    fn black_out(&mut self, node: NodeId, until: SimTime) {
        self.medium.set_blackout(node, until);
    }

    fn receivers_within(
        &mut self,
        sender: NodeId,
        center: Vec2,
        range: f64,
        t: SimTime,
        out: &mut Vec<NodeId>,
    ) {
        self.medium.receivers_within(sender, center, range, t, out);
    }

    fn farthest_distance(&mut self, center: Vec2, ids: &[NodeId], t: SimTime) -> f64 {
        self.medium.farthest_distance(center, ids, t)
    }
}

impl<A: ProtocolAgent> NetworkSim<A> {
    /// Build a simulation. `mobility` must have one entry per node; `agents` must have
    /// one entry per (session, node) pair in session-major order (for the single-session
    /// setups every pre-multi-group caller builds, that is simply one agent per node).
    pub fn new(setup: SimSetup, mobility: Vec<BoxedMobility>, agents: Vec<A>) -> Self {
        let n = setup.n_nodes();
        let n_sessions = setup.n_sessions();
        assert!(n_sessions > 0, "at least one multicast session");
        assert_eq!(mobility.len(), n, "one mobility model per node");
        assert_eq!(agents.len(), n * n_sessions, "one agent per (session, node)");
        for session in &setup.sessions {
            assert_eq!(session.roles.len(), n, "one role per node per session");
            assert!(session.traffic.source.index() < n, "traffic source must exist");
            assert!(
                matches!(session.roles[session.traffic.source.index()], GroupRole::Source),
                "the session's source role must sit at its traffic source"
            );
        }
        let duty = DutySchedule::from_seeds(&setup.lifecycle.duty_cycle, n, &setup.seeds);
        let core = NodeCore::new::<Sequential<'_, A::Payload>>(
            &setup,
            (0..n as u32).collect(),
            agents,
            duty,
        );
        NetworkSim {
            sim: Simulator::with_capacity(1024),
            medium: RadioMedium::new(mobility, setup.medium, setup.radio.max_range_m),
            harvest: HarvestPlan::from_seeds(
                &setup.harvest,
                n,
                setup.battery_capacity_j,
                &setup.seeds,
            ),
            curves: Curves::new(&setup),
            probe: ProbeScratch::default(),
            core,
            setup,
        }
    }

    /// The node core with the sequential seam over the rest of the simulation, plus the
    /// probe buffers and lifetime curves.
    fn parts(
        &mut self,
    ) -> (&mut NodeCore<A>, Sequential<'_, A::Payload>, &mut ProbeScratch, &mut Curves) {
        let NetworkSim { sim, setup, medium, harvest, core, curves, probe } = self;
        (core, Sequential { sim, medium, setup, harvest }, probe, curves)
    }

    /// Index of session `s`'s instance (or membership slot) at `node`.
    fn idx(&self, session: usize, node: NodeId) -> usize {
        session * self.setup.n_nodes + node.index()
    }

    /// Access a node's battery (for tests and the energy-budget example).
    pub fn battery(&self, n: NodeId) -> &Battery {
        &self.core.batteries[n.index()]
    }

    /// The protocol agent at `n` in the first session (the only session in single-group
    /// setups).
    pub fn agent(&self, n: NodeId) -> &A {
        &self.core.agents[n.index()]
    }

    /// The protocol agent running session `session` at node `n`.
    pub fn agent_in(&self, session: usize, n: NodeId) -> &A {
        &self.core.agents[self.idx(session, n)]
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// The instant node `n`'s battery was observed depleted, if it is currently dead.
    /// Without harvesting battery death is permanent: unlike a crash there is no
    /// rejoin. A harvest wake clears the entry.
    pub fn death_time(&self, n: NodeId) -> Option<SimTime> {
        self.core.death_at[n.index()]
    }

    /// True when this run tracks the energy lifecycle (finite batteries or continuous
    /// drain) and therefore attaches a [`LifetimeStats`] block to its report.
    fn lifetime_tracking(&self) -> bool {
        self.setup.battery_capacity_j.is_finite() || self.setup.lifecycle.has_continuous_drain()
    }

    /// Build the [`LifetimeStats`] block from the current state, or `None` when the run
    /// does not track the energy lifecycle.
    fn lifetime_stats(&self) -> Option<LifetimeStats> {
        if !self.lifetime_tracking() {
            return None;
        }
        // In streaming mode the bounded rings may have downsampled: one committed
        // point then spans `stride` raw epochs, and the reported cadence scales with
        // it (exact mode has stride 1, leaving the bytes unchanged).
        let epoch = self.sample_epoch().saturating_mul(self.curves.alive.stride());
        let n = self.setup.n_nodes as u64;
        let batteries = &self.core.batteries;
        let mut stats = LifetimeStats::empty(epoch.as_secs_f64(), n);
        stats.first_death_s = self.core.first_depletion.map(|t| t.as_secs_f64());
        stats.deaths = batteries.iter().filter(|b| b.is_depleted()).count() as u64;
        stats.alive_final = n - stats.deaths;
        stats.alive_curve = self.curves.alive.samples().to_vec();
        stats.delivery_ratio_curve = self.curves.delivery.samples().to_vec();
        stats.idle_energy_j = batteries.iter().map(Battery::idle_listened).sum();
        stats.sleep_energy_j = batteries.iter().map(Battery::slept).sum();
        stats.drained_j = batteries.iter().map(Battery::drained).sum();
        let capacity = self.setup.battery_capacity_j;
        if capacity.is_finite() && !batteries.is_empty() {
            let mut histogram = vec![0u64; RESIDUAL_HISTOGRAM_BINS];
            let mut sum = 0.0f64;
            let mut min = f64::INFINITY;
            for b in batteries {
                let residual = b.remaining();
                sum += residual;
                min = min.min(residual);
                let fraction = if capacity > 0.0 { residual / capacity } else { 0.0 };
                let bin = ((fraction * RESIDUAL_HISTOGRAM_BINS as f64) as usize)
                    .min(RESIDUAL_HISTOGRAM_BINS - 1);
                histogram[bin] += 1;
            }
            stats.residual_energy_histogram = histogram;
            stats.mean_residual_j = sum / batteries.len() as f64;
            stats.min_residual_j = min;
        }
        Some(stats)
    }

    /// The lifetime sampling cadence (zero in the config falls back to one second).
    fn sample_epoch(&self) -> SimDuration {
        let epoch = self.setup.lifecycle.sample_epoch;
        if epoch.is_zero() {
            SimDuration::from_secs(1)
        } else {
            epoch
        }
    }

    /// Energy attributed to session `session`'s frames so far, joules.
    pub fn session_energy_j(&self, session: usize) -> f64 {
        self.core.energy[session]
    }

    /// The phase-split control-traffic block, when suppression accounting is on.
    fn silence_stats(&self) -> Option<SilenceStats> {
        if !self.setup.silence.enabled {
            return None;
        }
        let sessions = self
            .core
            .silence_steady
            .iter()
            .zip(&self.core.silence_recovery)
            .map(|(&(sp, sb), &(rp, rb))| SessionSilence {
                steady_control_packets: sp,
                steady_control_bytes: sb,
                recovery_control_packets: rp,
                recovery_control_bytes: rb,
            })
            .collect();
        Some(SilenceStats::from_sessions(sessions))
    }

    /// Run the simulation for `duration` and return the report. Any faults in the
    /// setup's [`FaultPlan`] are injected, but no legitimacy probe runs — use
    /// [`Self::run_probed`] to also measure convergence.
    pub fn run(&mut self, duration: SimDuration) -> SimReport {
        self.run_inner(duration, None)
    }

    /// Run the simulation while probing the network through `observer` every
    /// [`StabilizationObserver::probe_epoch`] (legitimacy predicate + convergence
    /// accounting; see [`crate::faults`]). The observer's finish result is embedded in
    /// the report's `convergence` block (and its per-session stats in the per-group
    /// blocks, when the run has group dynamics). Probing reads state but never perturbs
    /// the event flow: for the same seeds and fault plan, the report's traffic/energy
    /// numbers are identical with and without a probe.
    pub fn run_probed(
        &mut self,
        duration: SimDuration,
        observer: &mut dyn StabilizationObserver,
    ) -> SimReport {
        self.run_inner(duration, Some(observer))
    }

    fn run_inner(
        &mut self,
        duration: SimDuration,
        probe: Option<&mut dyn StabilizationObserver>,
    ) -> SimReport {
        if self.setup.engine.is_parallel() {
            return shard::run_sharded(self, duration, probe);
        }
        let wall = std::time::Instant::now();
        let mut peak_depth: u64 = 0;
        let horizon = SimTime::ZERO + duration;
        let (core, mut s, ..) = self.parts();
        core.start_all(&mut s);
        // Schedule the fault plan through the same queue as every packet and timer.
        for (plan_idx, fe) in self.setup.faults.events().iter().enumerate() {
            if fe.at <= horizon {
                self.sim.schedule_at(fe.at, NetEvent::Fault(fe.kind, plan_idx as u64));
            }
        }
        // Schedule each session's churn the same way: membership changes are data.
        for (session, sess) in self.setup.sessions.iter().enumerate() {
            for ev in sess.churn.iter().filter(|ev| ev.at <= horizon) {
                let net = NetEvent::Membership {
                    session: session as u16,
                    node: ev.node,
                    change: ev.change,
                };
                self.sim.schedule_at(ev.at, net);
            }
        }
        // Kick off each session's CBR application.
        for (s, sess) in self.setup.sessions.iter().enumerate() {
            if sess.traffic.start < horizon {
                self.sim.schedule_at(
                    sess.traffic.start,
                    NetEvent::AppSend { session: s as u16, seq: 0 },
                );
            }
        }
        // Probe epochs and lifetime samples interleave with events in strict time order
        // (events at an epoch's exact timestamp dispatch first, so both see the
        // post-event state); when a probe and a sample fall on the same instant the
        // probe fires first — both only read state.
        let mut probe = probe;
        let probe_epoch = probe.as_deref().map(probe_epoch);
        let mut next_probe = probe_epoch.map(|epoch| SimTime::ZERO + epoch);
        let sample_epoch = self.sample_epoch();
        let mut next_sample =
            if self.lifetime_tracking() { Some(SimTime::ZERO + sample_epoch) } else { None };
        loop {
            if self.setup.engine.stats {
                peak_depth = peak_depth.max(self.sim.pending() as u64);
            }
            let next_aux = match (next_probe, next_sample) {
                (Some(p), Some(s)) => Some(p.min(s)),
                (p, s) => p.or(s),
            };
            match self.sim.peek_time() {
                Some(next) if next <= horizon && next_aux.is_none_or(|aux| next <= aux) => {
                    let (t, ev) = self.sim.pop_next().expect("peeked event must pop");
                    let (core, mut s, scratch, _) = self.parts();
                    match ev {
                        NetEvent::Fault(kind, plan_idx) => {
                            // Rejoins are repairs scheduled by an earlier crash, and
                            // no-op faults (e.g. corrupting an already-crashed node)
                            // never perturbed anything — reporting either would open
                            // spurious episodes.
                            let applied = core.apply_fault(&mut s, t, kind, plan_idx);
                            if let Some(observer) = probe.as_deref_mut() {
                                if applied && !matches!(kind, FaultKind::Rejoin { .. }) {
                                    observe(&mut [(core, s)], scratch, t, observer, Some(&kind));
                                }
                            }
                        }
                        other => core.dispatch(&mut s, t, other),
                    }
                }
                _ => {
                    let Some(aux) = next_aux else { break };
                    if aux > horizon {
                        break;
                    }
                    let (core, s, scratch, curves) = self.parts();
                    let mut parts = [(core, s)];
                    if next_probe == Some(aux) {
                        let observer = probe.as_deref_mut().expect("probe drives probe epochs");
                        observe(&mut parts, scratch, aux, observer, None);
                        next_probe = Some(aux + probe_epoch.expect("epoch set with the probe"));
                    }
                    if next_sample == Some(aux) {
                        curves.sample(&mut parts, aux);
                        next_sample = Some(aux + sample_epoch);
                    }
                }
            }
        }
        // Bring every battery's continuous drain up to the horizon so the residual
        // energy histogram and total-energy figures describe the whole run.
        let (core, mut s, ..) = self.parts();
        core.accrue_all(&mut s, horizon);
        let events = self.sim.events_processed();
        self.finish(duration, probe, || {
            EngineStats::from_counts(0, vec![events], peak_depth, 0, wall.elapsed().as_secs_f64())
        })
    }

    /// The report of a finished run: [`Self::report`] plus the engine block (when the
    /// setup asks for it) and the observer's convergence results.
    fn finish(
        &self,
        duration: SimDuration,
        probe: Option<&mut dyn StabilizationObserver>,
        engine: impl FnOnce() -> EngineStats,
    ) -> SimReport {
        let mut report = self.report(duration);
        if self.setup.engine.stats {
            report.engine = Some(engine());
        }
        if let Some(observer) = probe {
            report.convergence = observer.finish(SimTime::ZERO + duration);
            if let Some(groups) = report.groups.as_mut() {
                let per_session = observer.session_stats();
                for (group, stats) in groups.iter_mut().zip(per_session) {
                    group.convergence = Some(stats);
                }
            }
        }
        report
    }

    /// Build a report from the current traces (normally called by [`Self::run`]). The
    /// aggregate block folds every session; runs with group dynamics (several sessions
    /// or churn) additionally carry one per-group block per session.
    pub fn report(&self, duration: SimDuration) -> SimReport {
        let core = &self.core;
        let total_energy: f64 = core.batteries.iter().map(Battery::consumed).sum();
        let overhear: f64 = core.batteries.iter().map(Battery::overheard).sum();
        let label = core.agents.first().map(|a| a.label()).unwrap_or("protocol");
        let pairs: Vec<(&Trace, u32)> = core
            .traces
            .iter()
            .zip(&self.setup.sessions)
            .map(|(trace, session)| (trace, session.traffic.packet_size_bytes))
            .collect();
        let mut report = Trace::finish_aggregate(
            &pairs,
            label,
            duration,
            total_energy,
            overhear,
            core.channel.collisions(),
        );
        if self.setup.has_group_dynamics() {
            let groups = self
                .setup
                .sessions
                .iter()
                .enumerate()
                .map(|(s, session)| {
                    core.traces[s].group_stats(&GroupAccounting {
                        group: session.traffic.group.0,
                        source: session.traffic.source.0,
                        members_initial: session.initial_receivers(),
                        members_final: core.receiver_counts[s],
                        joins: core.joins[s],
                        leaves: core.leaves[s],
                        energy_j: core.energy[s],
                        overhear_energy_j: core.overhear[s],
                        collisions: core.channel.collisions_for(s),
                    })
                })
                .collect();
            report.groups = Some(groups);
        }
        report.lifetime = self.lifetime_stats();
        if self.setup.mac.reports_stats() {
            report.mac = Some(core.mac_stats(duration));
        }
        report.silence = self.silence_stats();
        report
    }
}

/// An observer's probe cadence (zero falls back to one second).
fn probe_epoch(observer: &dyn StabilizationObserver) -> SimDuration {
    let epoch = observer.probe_epoch();
    if epoch.is_zero() {
        SimDuration::from_secs(1)
    } else {
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Disposition, NodeCtx};
    use crate::mobility::Stationary;
    use crate::node::GroupId;
    use crate::session::MembershipEvent;

    /// A trivial flooding protocol used to exercise the runtime: the source broadcasts
    /// data at max range; every member delivers; every node rebroadcasts each packet once.
    struct Flood {
        seen: std::collections::HashSet<u64>,
    }

    impl Flood {
        fn new() -> Self {
            Flood { seen: std::collections::HashSet::new() }
        }
    }

    impl ProtocolAgent for Flood {
        type Payload = ();

        fn start(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}

        fn on_packet(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: &Packet<()>) -> Disposition {
            let Some(tag) = packet.data else { return Disposition::Discarded };
            if !self.seen.insert(tag.seq) {
                return Disposition::Discarded;
            }
            if ctx.is_member() {
                ctx.deliver_data(tag);
            }
            ctx.broadcast_data(packet.size_bytes, ctx.radio.max_range_m, tag, ());
            Disposition::Consumed
        }

        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, ()>, _kind: u64, _key: u64) {}

        fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, ()>, tag: DataTag, size: u32) {
            self.seen.insert(tag.seq);
            ctx.broadcast_data(size, ctx.radio.max_range_m, tag, ());
        }

        fn label(&self) -> &'static str {
            "flood-test"
        }
    }

    fn line_traffic(group: u16, source: NodeId) -> TrafficConfig {
        TrafficConfig {
            group: GroupId(group),
            source,
            data_rate_bps: 64_000.0,
            packet_size_bytes: 512,
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(11),
        }
    }

    fn line_setup(n: usize, spacing: f64) -> (SimSetup, Vec<BoxedMobility>) {
        let roles: Vec<GroupRole> =
            (0..n).map(|i| if i == 0 { GroupRole::Source } else { GroupRole::Member }).collect();
        let mobility: Vec<BoxedMobility> = (0..n)
            .map(|i| Box::new(Stationary::new(Vec2::new(i as f64 * spacing, 0.0))) as BoxedMobility)
            .collect();
        let radio = RadioConfig {
            loss_probability: 0.0,
            collisions_enabled: false,
            ..RadioConfig::default()
        };
        let setup = SimSetup::single(
            radio,
            line_traffic(0, NodeId(0)),
            roles,
            f64::INFINITY,
            SeedSequence::new(7),
            MediumConfig::default(),
            FaultPlan::new(),
        );
        (setup, mobility)
    }

    #[test]
    fn flooding_on_a_line_delivers_everything() {
        let (setup, mobility) = line_setup(4, 200.0);
        let agents = (0..4).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!(report.generated > 100, "CBR source must generate packets");
        assert_eq!(report.expected_deliveries, report.generated * 3);
        assert!(
            (report.pdr - 1.0).abs() < 1e-9,
            "ideal channel flooding delivers all, pdr={}",
            report.pdr
        );
        assert!(report.avg_delay_ms > 0.0);
        assert!(report.total_energy_j > 0.0);
        assert!(report.unavailability_ratio < 1e-9);
        assert!(report.groups.is_none(), "single static session: no per-group breakdown");
    }

    #[test]
    fn partitioned_member_receives_nothing() {
        let (mut setup, _) = line_setup(3, 200.0);
        // Node 2 is far out of range of everyone.
        let mobility: Vec<BoxedMobility> = vec![
            Box::new(Stationary::new(Vec2::new(0.0, 0.0))),
            Box::new(Stationary::new(Vec2::new(200.0, 0.0))),
            Box::new(Stationary::new(Vec2::new(5_000.0, 0.0))),
        ];
        setup.sessions[0].roles = vec![GroupRole::Source, GroupRole::Member, GroupRole::Member];
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!((report.pdr - 0.5).abs() < 1e-9, "only half the deliveries can happen");
    }

    #[test]
    fn loss_reduces_pdr() {
        let (mut setup, mobility) = line_setup(4, 200.0);
        setup.radio.loss_probability = 0.3;
        let agents = (0..4).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!(report.pdr < 1.0);
        assert!(report.pdr > 0.2, "some packets still get through, pdr={}", report.pdr);
    }

    #[test]
    fn energy_is_charged_for_tx_rx_and_overhearing() {
        let (setup, mobility) = line_setup(3, 100.0);
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(5));
        assert!(report.total_energy_j > 0.0);
        // The source both transmits and (re-)receives floods from node 1.
        assert!(sim.battery(NodeId(0)).tx_total() > 0.0);
        assert!(sim.battery(NodeId(1)).rx_total() > 0.0);
        // Duplicate floods arriving at a node that has already seen them are discarded,
        // so some overhearing energy must have accumulated.
        assert!(report.overhear_energy_j > 0.0);
        // A single session owns every joule the batteries burned.
        assert!((sim.session_energy_j(0) - report.total_energy_j).abs() < 1e-9);
    }

    #[test]
    fn depleted_nodes_stop_participating() {
        let (mut setup, mobility) = line_setup(3, 100.0);
        setup.battery_capacity_j = 0.0; // dead from the start
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(5));
        assert_eq!(report.delivered, 0, "dead radios deliver nothing");
        // An initially depleted fleet is dead at time zero, not censored: the lifetime
        // block must record the deaths rather than score a full-run lifetime.
        assert_eq!(sim.death_time(NodeId(0)), Some(SimTime::ZERO));
        let lifetime = report.lifetime.as_ref().expect("finite batteries track lifetime");
        assert_eq!(lifetime.first_death_s, Some(0.0));
        assert_eq!(lifetime.deaths, 3);
        assert_eq!(lifetime.alive_final, 0);
    }

    #[test]
    fn duty_aware_pricing_prices_at_the_awake_receiver() {
        // Nodes at 0 / 100 / 200 m; node 2 (the farthest receiver) is phase-shifted to
        // sleep through the whole broadcast window. With plain TX power control the
        // sender pays for 200 m; with the duty-aware opt-in it pays only for the one
        // receiver that can actually take the frame at 100 m.
        let tx_total = |duty_aware: bool| {
            let (mut setup, mobility) = line_setup(3, 100.0);
            setup.lifecycle =
                setup.lifecycle.with_tx_power_control(true).with_duty_aware_pricing(duty_aware);
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            // Hand-built schedule: 1000 s period, first half awake; node 2's phase puts
            // it asleep for all of [0, 500) s — provably asleep at the delivery instant.
            let half = 500_000_000_000u64;
            sim.core.duty = DutySchedule::with_phases(2 * half, half, vec![0, 0, half]);
            let t = SimTime::from_secs(1);
            let frame = PendingFrame {
                session: 0,
                sender: NodeId(0),
                class: PacketClass::Data,
                size_bytes: 512,
                range_m: sim.setup.radio.max_range_m,
                data: None,
                payload: (),
                attempt: 0,
                requested_at: t,
            };
            let (core, mut s, ..) = sim.parts();
            core.try_send(&mut s, t, None, frame);
            sim.battery(NodeId(0)).tx_total()
        };
        let radio = RadioConfig::default();
        let aware = tx_total(true);
        let blind = tx_total(false);
        assert!(
            (aware - radio.energy.tx_energy(100.0, 512)).abs() < 1e-12,
            "duty-aware pricing charges the awake receiver's distance: {aware}"
        );
        assert!(
            (blind - radio.energy.tx_energy(200.0, 512)).abs() < 1e-12,
            "default pricing still charges the farthest sleeper: {blind}"
        );
        assert!(aware < blind);
    }

    #[test]
    fn harvest_wake_revives_depleted_nodes() {
        // Idle drain kills a 1 J fleet roughly two seconds in. Without harvesting the
        // run goes dark for good; with a generous harvest rate the nodes power-cycle
        // and keep delivering. The first depletion instant must be identical in both
        // runs: harvesting only acts after it.
        let run = |harvest: HarvestConfig| {
            let (mut setup, mobility) = line_setup(3, 200.0);
            setup.battery_capacity_j = 1.0;
            setup.lifecycle.idle_listen_w = 0.5;
            setup.harvest = harvest;
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            let report = sim.run(SimDuration::from_secs(20));
            let harvested: f64 = (0..3).map(|i| sim.battery(NodeId(i)).harvested()).sum();
            (report, harvested)
        };
        let (dark, dark_harvested) = run(HarvestConfig::off());
        let (cycling, cycling_harvested) = run(HarvestConfig::on(10.0, 10.0, 0.5));
        assert_eq!(dark_harvested, 0.0);
        assert!(cycling_harvested > 0.0, "waking nodes banked harvested charge");
        let dark_lt = dark.lifetime.as_ref().expect("finite batteries track lifetime");
        let cyc_lt = cycling.lifetime.as_ref().expect("finite batteries track lifetime");
        assert!(dark_lt.first_death_s.is_some(), "the fleet must deplete at least once");
        assert_eq!(
            dark_lt.first_death_s, cyc_lt.first_death_s,
            "harvesting cannot move the first depletion"
        );
        assert!(
            cycling.delivered > dark.delivered,
            "power-cycling relays deliver more than permanently dead ones \
             ({} vs {})",
            cycling.delivered,
            dark.delivered
        );
    }

    #[test]
    fn harvest_runs_are_deterministic_for_a_seed() {
        let run = || {
            let (mut setup, mobility) = line_setup(3, 200.0);
            setup.battery_capacity_j = 1.0;
            setup.lifecycle.idle_listen_w = 0.5;
            setup.harvest = HarvestConfig::on(5.0, 20.0, 0.5);
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn streaming_mode_preserves_scalar_metrics_and_attaches_its_block() {
        let run = |metrics: MetricsConfig| {
            let (mut setup, mobility) = line_setup(4, 200.0);
            setup.metrics = metrics;
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        let exact = run(MetricsConfig::exact());
        let streaming = run(MetricsConfig::streaming());
        assert!(exact.streaming.is_none(), "exact reports carry no streaming block");
        let block = streaming.streaming.as_ref().expect("streaming reports carry the block");
        assert!(block.report_bytes > 0);
        // Scalar metrics fold through the same counters in both modes: bit-equal.
        assert_eq!(exact.generated, streaming.generated);
        assert_eq!(exact.delivered, streaming.delivered);
        assert_eq!(exact.pdr.to_bits(), streaming.pdr.to_bits());
        assert_eq!(exact.avg_delay_ms.to_bits(), streaming.avg_delay_ms.to_bits());
        assert_eq!(exact.total_energy_j.to_bits(), streaming.total_energy_j.to_bits());
        // The histogram's exact maximum dominates its own quantiles and the mean.
        assert!(block.latency_p95_ms <= block.latency_max_ms + 1e-9);
        assert!(block.latency_max_ms >= exact.avg_delay_ms - 1e-9);
    }

    #[test]
    fn report_is_deterministic_for_a_seed() {
        let run = || {
            let (setup, mobility) = line_setup(4, 200.0);
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_and_rejoin_suppress_then_restore_participation() {
        // Node 1 is the only relay between the source and node 2 on the line. Crash it
        // for the middle of the run: deliveries to node 2 must stop, then resume.
        let run = |faults: FaultPlan| {
            let (mut setup, mobility) = line_setup(3, 200.0);
            setup.faults = faults;
            let agents = (0..3).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        let healthy = run(FaultPlan::new());
        let crashed = run(FaultPlan::new().with(
            SimTime::from_secs(4),
            FaultKind::Crash { node: NodeId(1), down_for: SimDuration::from_secs(5) },
        ));
        assert!(crashed.delivered < healthy.delivered, "a crashed relay loses deliveries");
        assert!(
            crashed.pdr > 0.3,
            "after the rejoin the relay must carry traffic again, pdr={}",
            crashed.pdr
        );
        let permanent = run(FaultPlan::new().with(
            SimTime::from_secs(4),
            FaultKind::Crash { node: NodeId(1), down_for: SimDuration::MAX },
        ));
        assert!(permanent.delivered < crashed.delivered, "a permanent crash never recovers");
    }

    #[test]
    fn blackout_silences_links_but_still_burns_transmit_energy() {
        let run = |faults: FaultPlan| {
            let (mut setup, mobility) = line_setup(2, 100.0);
            setup.faults = faults;
            let agents = (0..2).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(20))
        };
        let healthy = run(FaultPlan::new());
        // Black out the source for the whole traffic window.
        let dark = run(FaultPlan::new().with(
            SimTime::from_secs(0),
            FaultKind::Blackout { node: NodeId(0), duration: SimDuration::from_secs(30) },
        ));
        assert_eq!(dark.delivered, 0, "nothing escapes a blacked-out transmitter");
        assert_eq!(dark.generated, healthy.generated, "the application keeps generating");
        assert!(dark.total_energy_j > 0.0, "transmissions into the void still cost energy");
        assert!(dark.total_energy_j < healthy.total_energy_j, "but nobody pays rx energy");
    }

    #[test]
    fn battery_drain_spike_can_silence_a_node() {
        let (mut setup, mobility) = line_setup(3, 200.0);
        setup.battery_capacity_j = 100.0;
        setup.faults = FaultPlan::new()
            .with(SimTime::from_secs(4), FaultKind::Drain { node: NodeId(1), joules: 1_000.0 });
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        assert!(sim.battery(NodeId(1)).is_depleted(), "the spike empties the battery");
        assert!(sim.battery(NodeId(1)).drained() > 0.0);
        assert!(report.pdr < 1.0, "the dead relay costs deliveries");
    }

    #[test]
    fn faulted_runs_are_deterministic_for_a_seed_and_plan() {
        let run = || {
            let (mut setup, mobility) = line_setup(4, 200.0);
            setup.faults = FaultPlan::new()
                .with(
                    SimTime::from_secs(3),
                    FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
                )
                .with(
                    SimTime::from_secs(5),
                    FaultKind::Blackout { node: NodeId(1), duration: SimDuration::from_secs(2) },
                )
                .with(SimTime::from_secs(8), FaultKind::Corrupt { node: NodeId(3) });
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejoins_are_not_reported_as_faults_and_blackouts_suspend_probe_liveness() {
        #[derive(Default)]
        struct Recording {
            faults: Vec<FaultKind>,
            alive_mid: Option<(Vec<bool>, Vec<bool>)>,
            alive_late: Option<(Vec<bool>, Vec<bool>)>,
        }
        impl crate::faults::StabilizationObserver for Recording {
            fn on_epoch(&mut self, ctx: &crate::faults::ProbeContext<'_>) {
                if ctx.now == SimTime::from_secs(6) {
                    self.alive_mid = Some((ctx.alive.to_vec(), ctx.blacked_out.to_vec()));
                }
                if ctx.now == SimTime::from_secs(12) {
                    self.alive_late = Some((ctx.alive.to_vec(), ctx.blacked_out.to_vec()));
                }
            }
            fn on_fault(&mut self, kind: &FaultKind, _ctx: &crate::faults::ProbeContext<'_>) {
                self.faults.push(*kind);
            }
            fn finish(&mut self, _end: SimTime) -> Option<ssmcast_metrics::ConvergenceStats> {
                None
            }
        }
        let (mut setup, mobility) = line_setup(3, 100.0);
        setup.faults = FaultPlan::new()
            .with(
                SimTime::from_secs(3),
                FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
            )
            .with(
                SimTime::from_secs(5),
                FaultKind::Blackout { node: NodeId(1), duration: SimDuration::from_secs(3) },
            );
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let mut obs = Recording::default();
        sim.run_probed(SimDuration::from_secs(15), &mut obs);
        assert_eq!(
            obs.faults,
            vec![
                FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
                FaultKind::Blackout { node: NodeId(1), duration: SimDuration::from_secs(3) },
            ],
            "the internally scheduled rejoin is a repair, not an injected fault"
        );
        assert_eq!(
            obs.alive_mid,
            Some((vec![true, true, false], vec![false, true, false])),
            "at t=6 node 2 is crashed (until 7); node 1 is alive but blacked out (until 8)"
        );
        assert_eq!(
            obs.alive_late,
            Some((vec![true, true, true], vec![false, false, false])),
            "by t=12 both the blackout and the crash are over"
        );
    }

    #[test]
    fn probing_never_perturbs_the_simulation_itself() {
        // A do-nothing observer: the probed run's traffic/energy numbers must equal the
        // unprobed run's exactly (probes read state, they do not schedule anything).
        struct Null;
        impl crate::faults::StabilizationObserver for Null {
            fn probe_epoch(&self) -> SimDuration {
                SimDuration::from_millis(250)
            }
            fn on_epoch(&mut self, _ctx: &crate::faults::ProbeContext<'_>) {}
            fn on_fault(&mut self, _kind: &FaultKind, _ctx: &crate::faults::ProbeContext<'_>) {}
            fn finish(&mut self, _end: SimTime) -> Option<ssmcast_metrics::ConvergenceStats> {
                None
            }
        }
        let run = |probed: bool| {
            let (mut setup, mobility) = line_setup(4, 200.0);
            setup.faults = FaultPlan::new().with(
                SimTime::from_secs(3),
                FaultKind::Crash { node: NodeId(2), down_for: SimDuration::from_secs(4) },
            );
            let agents = (0..4).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            if probed {
                sim.run_probed(SimDuration::from_secs(15), &mut Null)
            } else {
                sim.run(SimDuration::from_secs(15))
            }
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn grid_and_brute_force_query_modes_agree_byte_for_byte() {
        use crate::medium::MediumConfig;
        let run = |medium: MediumConfig| {
            let (mut setup, mobility) = line_setup(6, 150.0);
            setup.radio.loss_probability = 0.1; // exercise the loss RNG draw order
            setup.medium = medium;
            let agents = (0..6).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(MediumConfig::grid()), run(MediumConfig::brute_force()));
        // The same holds under a coarse position epoch (both paths quantised alike).
        let epoch = SimDuration::from_millis(250);
        assert_eq!(
            run(MediumConfig::grid().with_epoch(epoch)),
            run(MediumConfig::brute_force().with_epoch(epoch))
        );
    }

    /// Two-session setup on the same 4-node line: session 0 sourced at node 0, session 1
    /// sourced at node 3, members mirrored.
    fn two_session_setup(spacing: f64) -> (SimSetup, Vec<BoxedMobility>) {
        let (mut setup, mobility) = line_setup(4, spacing);
        let roles1 =
            vec![GroupRole::Member, GroupRole::Member, GroupRole::Member, GroupRole::Source];
        setup.sessions.push(SessionSetup::new(line_traffic(1, NodeId(3)), roles1));
        (setup, mobility)
    }

    #[test]
    fn concurrent_sessions_deliver_independently_and_carry_group_blocks() {
        let (setup, mobility) = two_session_setup(200.0);
        let agents = (0..8).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        let groups = report.groups.as_ref().expect("two sessions breed a breakdown");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, 0);
        assert_eq!(groups[1].group, 1);
        assert_eq!(groups[1].source, 3);
        for g in groups {
            assert!(g.generated > 100, "both sessions generate traffic");
            assert!((g.pdr - 1.0).abs() < 1e-9, "ideal channel floods deliver all");
        }
        // Aggregate counters are the per-session sums.
        assert_eq!(report.generated, groups[0].generated + groups[1].generated);
        assert_eq!(report.delivered, groups[0].delivered + groups[1].delivered);
        // And the shared medium conserves energy across the sessions.
        let attributed: f64 = groups.iter().map(|g| g.energy_j).sum();
        assert!(
            (attributed - report.total_energy_j).abs() <= 1e-9 * report.total_energy_j.max(1.0),
            "attributed {attributed} vs total {}",
            report.total_energy_j
        );
    }

    #[test]
    fn sessions_are_isolated_frames_of_one_session_never_reach_the_other() {
        // Session 1's flood instances never see session 0's frames: each flood agent
        // dedups by seq, so if dispatch leaked across sessions the shared seq numbers
        // would suppress deliveries in one of them.
        let (setup, mobility) = two_session_setup(200.0);
        let agents = (0..8).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        let groups = report.groups.expect("breakdown");
        assert!((groups[0].pdr - 1.0).abs() < 1e-9 && (groups[1].pdr - 1.0).abs() < 1e-9);
        // Each node runs one instance per session: distinct objects, distinct state.
        assert!(!std::ptr::eq(sim.agent_in(0, NodeId(1)), sim.agent_in(1, NodeId(1))));
    }

    #[test]
    fn membership_churn_updates_expected_deliveries_and_counts() {
        // Node 2 leaves session 0 at t=5 and rejoins at t=8; while out, generated
        // packets owe one fewer delivery and node 2's deliveries are dropped.
        let (mut setup, mobility) = line_setup(3, 200.0);
        setup.sessions[0].churn = vec![
            MembershipEvent {
                at: SimTime::from_secs(5),
                node: NodeId(2),
                change: MembershipChange::Leave,
            },
            MembershipEvent {
                at: SimTime::from_secs(8),
                node: NodeId(2),
                change: MembershipChange::Join,
            },
        ];
        let agents = (0..3).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(20));
        let groups = report.groups.expect("churn breeds a breakdown");
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].joins, 1);
        assert_eq!(groups[0].leaves, 1);
        assert_eq!(groups[0].members_initial, 2);
        assert_eq!(groups[0].members_final, 2);
        assert!(
            report.expected_deliveries < report.generated * 2,
            "packets generated during the absence owe only one delivery"
        );
        assert!(report.expected_deliveries > report.generated, "node 1 stays a member throughout");
        assert!((report.pdr - 1.0).abs() < 1e-2, "expected and delivered shrink together");
        assert!(groups[0].join_overhead_bytes_per_event >= 0.0);
    }

    #[test]
    fn runtime_drops_deliveries_for_nodes_outside_the_group() {
        // A protocol that (wrongly) delivers everywhere: the runtime's membership guard
        // must still only count members.
        struct OverDeliver {
            seen: std::collections::HashSet<u64>,
        }
        impl ProtocolAgent for OverDeliver {
            type Payload = ();
            fn start(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: &Packet<()>) -> Disposition {
                if let Some(tag) = packet.data {
                    ctx.deliver_data(tag); // no membership check at all
                    if self.seen.insert(tag.seq) {
                        ctx.broadcast_data(packet.size_bytes, ctx.radio.max_range_m, tag, ());
                    }
                }
                Disposition::Consumed
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, ()>, _kind: u64, _key: u64) {}
            fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, ()>, tag: DataTag, size: u32) {
                self.seen.insert(tag.seq);
                ctx.broadcast_data(size, ctx.radio.max_range_m, tag, ());
            }
            fn label(&self) -> &'static str {
                "overdeliver"
            }
        }
        let (mut setup, mobility) = line_setup(3, 100.0);
        setup.sessions[0].roles = vec![GroupRole::Source, GroupRole::NonMember, GroupRole::Member];
        // Mark the setup as dynamic so the breakdown is attached even with one session.
        setup.sessions[0].churn = vec![MembershipEvent {
            at: SimTime::from_secs(19),
            node: NodeId(1),
            change: MembershipChange::Join,
        }];
        let agents = (0..3).map(|_| OverDeliver { seen: Default::default() }).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(18));
        // Only node 2's deliveries count: the non-member node 1 delivered in vain. Each
        // packet reaches node 2 along two paths, so the duplicate filter also engages.
        assert_eq!(report.expected_deliveries, report.generated);
        assert_eq!(report.delivered, report.generated, "the single member is fully served");
        assert!(report.duplicate_deliveries > 0);
    }

    #[test]
    fn multi_session_runs_are_deterministic() {
        let run = || {
            let (mut setup, mobility) = two_session_setup(200.0);
            setup.sessions[1].churn = vec![MembershipEvent {
                at: SimTime::from_secs(6),
                node: NodeId(1),
                change: MembershipChange::Leave,
            }];
            let agents = (0..8).map(|_| Flood::new()).collect();
            let mut sim = NetworkSim::new(setup, mobility, agents);
            sim.run(SimDuration::from_secs(15))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn probe_context_carries_one_view_per_session() {
        struct CountSessions {
            seen: Vec<usize>,
        }
        impl crate::faults::StabilizationObserver for CountSessions {
            fn on_epoch(&mut self, ctx: &crate::faults::ProbeContext<'_>) {
                self.seen.push(ctx.sessions.len());
                for view in ctx.sessions {
                    assert_eq!(view.parents.len(), view.roles.len());
                }
            }
            fn on_fault(&mut self, _k: &FaultKind, _ctx: &crate::faults::ProbeContext<'_>) {}
            fn finish(&mut self, _end: SimTime) -> Option<ssmcast_metrics::ConvergenceStats> {
                None
            }
        }
        let (setup, mobility) = two_session_setup(200.0);
        let agents = (0..8).map(|_| Flood::new()).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let mut obs = CountSessions { seen: Vec::new() };
        sim.run_probed(SimDuration::from_secs(5), &mut obs);
        assert!(!obs.seen.is_empty());
        assert!(obs.seen.iter().all(|&n| n == 2));
    }
}
