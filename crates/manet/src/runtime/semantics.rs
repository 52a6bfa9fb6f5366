//! The per-node semantics both engines run, written once.
//!
//! A [`NodeCore`] holds the state of the nodes one engine owns — agents, RNGs,
//! batteries, crash/death/accrual state, traces, memberships, channel, MAC and its
//! counters, timers and silence buckets — indexed by *local* node index. The sequential
//! engine owns one core over every node, so its local index is the global node id; the
//! sharded engine owns one core per shard, over that shard's stripe.
//!
//! The handlers (`dispatch`, `try_send`, `apply_fault`, …) are generic over [`Seam`],
//! which answers the five questions on which the engines differ:
//!
//! 1. Where a new event goes: into the simulator in insertion order, or into a keyed
//!    shard queue or cross-shard lane ([`Seam::schedule`], [`Seam::deliver`]).
//! 2. Which RNG the MAC and the loss draw use: the global `"channel-loss"` stream, or
//!    the sender's own `"shard-loss"` stream ([`Seam::PER_SENDER_LOSS`]).
//! 3. Where positions, blackouts and receiver discs come from: the live radio medium,
//!    or the topology frozen for the current window ([`Seam::position`] and the
//!    methods after it).
//! 4. When carrier capture and loss are evaluated: both at send time for the receivers
//!    not yet depleted, or a loss draw per receiver at send time and capture at
//!    delivery ([`Seam::CAPTURE_AT_DELIVERY`]).
//! 5. How session energy accumulates: one scalar per session in event order, or one
//!    value per (session, node) reduced in node order ([`Seam::PER_NODE_ENERGY`]).
//!
//! The per-session recovery flags that split control traffic into steady and recovery
//! phases live in every core and are refreshed by [`observe`] after each observer
//! notification, so they need no seam.

use super::{NetEvent, PendingFrame, SimSetup};
use crate::agent::{Action, Disposition, NodeCtx, ProtocolAgent};
use crate::battery::{Battery, EnergyUse};
use crate::channel::Channel;
use crate::faults::{FaultKind, ProbeContext, SessionProbe, StabilizationObserver};
use crate::geometry::Vec2;
use crate::harvest::HarvestPlan;
use crate::lifecycle::DutySchedule;
use crate::mac::{MacDecision, MacFrame, MacPolicy};
use crate::node::{GroupRole, NodeId};
use crate::packet::{DataTag, Packet, PacketClass};
use crate::report::Trace;
use crate::session::MembershipChange;
use crate::snapshot::TopologySnapshot;
use rand::rngs::StdRng;
use rand::Rng;
use ssmcast_dessim::{EventId, SimDuration, SimTime};
use ssmcast_metrics::{CurveRing, MacStats};
use std::collections::HashMap;
use std::sync::Arc;

/// Canonical event key: `(rank, a, b, c, d)`. Ranks order same-time events the way the
/// sequential engine's insertion order does for the seeded classes (faults before churn
/// before application sends); the remaining fields make every key unique, so a keyed
/// queue's pop order is a pure function of the event, not of who pushed it first. The
/// sequential engine ignores keys.
pub(super) type Key = (u8, u64, u64, u64, u64);

pub(super) const RANK_FAULT: u8 = 0;
pub(super) const RANK_MEMBERSHIP: u8 = 1;
pub(super) const RANK_APPSEND: u8 = 2;
const RANK_TIMER: u8 = 3;
const RANK_DELIVER: u8 = 4;
const RANK_MACRETRY: u8 = 5;
const RANK_HARVEST: u8 = 6;

/// What the node semantics need from the engine running them. Implemented exactly
/// twice: by the sequential engine and by the sharded one.
pub(super) trait Seam<'a, P> {
    /// Session energy accumulates per (session, node) and is reduced in ascending node
    /// order, so the floating-point sums do not depend on how nodes are partitioned.
    const PER_NODE_ENERGY: bool;
    /// The MAC and the channel-loss draws use the sender's own stream, so the draw
    /// order does not depend on how events from different senders interleave.
    const PER_SENDER_LOSS: bool;
    /// Carrier capture is evaluated at delivery, on the receiver's own core, rather than
    /// at send time on the sender's.
    const CAPTURE_AT_DELIVERY: bool;

    /// The run's static setup.
    fn setup(&self) -> &'a SimSetup;
    /// The run's materialised harvest rates.
    fn harvest(&self) -> &'a HarvestPlan;
    /// Index of `node` in the core that owns it.
    fn local(&self, node: NodeId) -> usize;
    /// Index of the core that owns `node` (always 0 on the sequential engine).
    fn shard(&self, node: NodeId) -> usize;

    /// Schedule a node-local event at `at`; `key` is its canonical tie-break.
    fn schedule(&mut self, at: SimTime, key: Key, ev: NetEvent<P>) -> EventId;
    /// Cancel a pending event returned by [`Self::schedule`].
    fn cancel(&mut self, id: EventId);
    /// Schedule a delivery at receiver `rx`, which another core may own.
    fn deliver(&mut self, at: SimTime, key: Key, rx: NodeId, ev: NetEvent<P>);

    /// Position of `node` at `t`.
    fn position(&mut self, node: NodeId, t: SimTime) -> Vec2;
    /// Every node's position at `t`.
    fn positions(&mut self, t: SimTime) -> &[Vec2];
    /// True while `node`'s links are blacked out at `t`.
    fn is_blacked_out(&self, node: NodeId, t: SimTime) -> bool;
    /// Black out `node`'s links until `until` (a longer existing blackout stays).
    fn black_out(&mut self, node: NodeId, until: SimTime);
    /// Every node other than `sender` within `range` of `center` at `t`, ascending node
    /// id, blacked-out nodes excluded.
    fn receivers_within(
        &mut self,
        sender: NodeId,
        center: Vec2,
        range: f64,
        t: SimTime,
        out: &mut Vec<NodeId>,
    );
    /// Greatest distance from `center` to any node in `ids` at `t` (0 when empty).
    fn farthest_distance(&mut self, center: Vec2, ids: &[NodeId], t: SimTime) -> f64;
}

/// MAC activity counters of one core.
#[derive(Clone, Debug, Default)]
pub(super) struct MacCounts {
    /// Broadcast requests that reached the MAC (attempt 0, after liveness/blackout
    /// filtering).
    requested: u64,
    /// Frames the MAC actually put on the air.
    sent: u64,
    /// Frames the MAC abandoned (retry cap exceeded).
    drops: u64,
    /// MAC deferrals (each postponement of a pending frame counts once).
    deferrals: u64,
    /// Sum of request-to-transmission delays over sent frames.
    access_delay: SimDuration,
    /// Sum of transmit airtime over sent frames.
    airtime: SimDuration,
}

impl MacCounts {
    /// Add another core's counts to these.
    pub(super) fn absorb(&mut self, other: &MacCounts) {
        self.requested += other.requested;
        self.sent += other.sent;
        self.drops += other.drops;
        self.deferrals += other.deferrals;
        self.access_delay += other.access_delay;
        self.airtime += other.airtime;
    }
}

/// The state of the nodes one engine owns (see the module docs).
pub(super) struct NodeCore<A: ProtocolAgent> {
    /// Global id of each local node, ascending (`0..n` on the sequential engine).
    pub(super) owned: Vec<u32>,
    /// One agent per (session, local node): `agents[session * owned.len() + local]`.
    pub(super) agents: Vec<A>,
    /// Per-local protocol RNG (the `"protocol"` stream of the node's global id).
    pub(super) rngs: Vec<StdRng>,
    /// Channel-loss streams: the one global stream, or one per local sender
    /// ([`Seam::PER_SENDER_LOSS`]).
    loss_rngs: Vec<StdRng>,
    pub(super) batteries: Vec<Battery>,
    /// Per-node crash flag (driven by [`FaultKind::Crash`] / [`FaultKind::Rejoin`]).
    pub(super) crashed: Vec<bool>,
    /// Per-node horizon up to which continuous idle/sleep drain has been accrued.
    pub(super) accrued_until: Vec<SimTime>,
    /// First instant each node's battery was observed depleted. Without harvesting,
    /// battery death is permanent; a harvest wake clears the entry again.
    pub(super) death_at: Vec<Option<SimTime>>,
    /// Earliest depletion ever observed among these nodes — `first_death_s` must report
    /// the first depletion even after a harvest wake clears `death_at`.
    pub(super) first_depletion: Option<SimTime>,
    /// Materialised per-node duty-cycle schedule (always-awake when duty cycling is off).
    pub(super) duty: DutySchedule,
    /// Per-local transmission, MAC-retry and harvest-wake counters: they make the keys
    /// of the events a node spawns unique per node.
    tx_seq: Vec<u64>,
    mac_seq: Vec<u64>,
    harvest_seq: Vec<u64>,
    /// The full `sessions × n` membership table, session-major, starting from the
    /// sessions' initial roles. Every core applies every churn event, so the tables
    /// agree everywhere without synchronization.
    pub(super) memberships: Vec<GroupRole>,
    /// Current receivers (members excluding the source) per session.
    pub(super) receiver_counts: Vec<u64>,
    /// Join churn events applied per session.
    pub(super) joins: Vec<u64>,
    /// Leave churn events applied per session.
    pub(super) leaves: Vec<u64>,
    /// One traffic trace per session.
    pub(super) traces: Vec<Trace>,
    /// Energy attributed to each session's frames (tx + rx + overhear), joules: one
    /// value per session, or per (session, local node) ([`Seam::PER_NODE_ENERGY`]).
    /// Every radio consumption flows through exactly one session, so these sum to the
    /// batteries' total minus continuous and fault-injected drain (which are not radio
    /// activity and belong to no session): the shared medium conserves energy.
    pub(super) energy: Vec<f64>,
    /// Overheard/discarded reception energy, laid out like `energy`.
    pub(super) overhear: Vec<f64>,
    /// Full-width collision channel; a shard only ever touches its own receivers.
    pub(super) channel: Channel,
    /// Full-width medium-access policy; a shard only ever reads its own nodes' state.
    pub(super) mac: Box<dyn MacPolicy>,
    pub(super) mac_counts: MacCounts,
    /// Pending timers keyed by (node, session, kind, key).
    timers: HashMap<(u32, u16, u64, u64), EventId>,
    scratch_actions: Vec<Action<A::Payload>>,
    scratch_receivers: Vec<NodeId>,
    /// Per-session recovery flag, refreshed from the observer by [`observe`]; drives
    /// the steady-vs-recovery control-byte split. All-false (and the buckets below
    /// unused) when beacon suppression is off.
    recovering: Vec<bool>,
    /// Per-session (packets, bytes) of control traffic sent while steady.
    pub(super) silence_steady: Vec<(u64, u64)>,
    /// Per-session (packets, bytes) of control traffic sent while recovering.
    pub(super) silence_recovery: Vec<(u64, u64)>,
}

impl<A: ProtocolAgent> NodeCore<A> {
    /// The nodes `owned` (ascending global ids) in their initial state, running
    /// `agents` (session-major over `owned`) under the layout seam `S` prescribes.
    pub(super) fn new<'a, S: Seam<'a, A::Payload>>(
        setup: &SimSetup,
        owned: Vec<u32>,
        agents: Vec<A>,
        duty: DutySchedule,
    ) -> Self {
        let (n, cnt, n_sessions) = (setup.n_nodes, owned.len(), setup.n_sessions());
        let seeds = &setup.seeds;
        let batteries = vec![Battery::with_capacity(setup.battery_capacity_j); cnt];
        // A zero-capacity battery is depleted before the first event: record the death
        // at time zero so lifetime metrics never censor an already-dead fleet.
        let death_at: Vec<Option<SimTime>> =
            batteries.iter().map(|b| b.is_depleted().then_some(SimTime::ZERO)).collect();
        let loss_rngs = if S::PER_SENDER_LOSS {
            owned.iter().map(|&gi| seeds.indexed_stream("shard-loss", u64::from(gi))).collect()
        } else {
            vec![seeds.stream("channel-loss")]
        };
        let energy_slots = if S::PER_NODE_ENERGY { n_sessions * cnt } else { n_sessions };
        NodeCore {
            rngs: owned.iter().map(|&gi| seeds.indexed_stream("protocol", u64::from(gi))).collect(),
            loss_rngs,
            first_depletion: death_at.iter().flatten().min().copied(),
            death_at,
            batteries,
            crashed: vec![false; cnt],
            accrued_until: vec![SimTime::ZERO; cnt],
            duty,
            tx_seq: vec![0; cnt],
            mac_seq: vec![0; cnt],
            harvest_seq: vec![0; cnt],
            memberships: setup.sessions.iter().flat_map(|s| s.roles.iter().copied()).collect(),
            receiver_counts: setup.sessions.iter().map(|s| s.initial_receivers()).collect(),
            joins: vec![0; n_sessions],
            leaves: vec![0; n_sessions],
            traces: (0..n_sessions).map(|_| Trace::with_config(&setup.metrics)).collect(),
            energy: vec![0.0; energy_slots],
            overhear: vec![0.0; energy_slots],
            channel: Channel::new(n, n_sessions),
            mac: setup.mac.build(n, seeds),
            mac_counts: MacCounts::default(),
            timers: HashMap::new(),
            scratch_actions: Vec::with_capacity(16),
            scratch_receivers: Vec::with_capacity(16),
            recovering: vec![false; n_sessions],
            silence_steady: vec![(0, 0); n_sessions],
            silence_recovery: vec![(0, 0); n_sessions],
            owned,
            agents,
        }
    }

    /// True while local node `li` can neither send nor receive: depleted or crashed.
    fn is_down(&self, li: usize) -> bool {
        self.batteries[li].is_depleted() || self.crashed[li]
    }

    /// Index into `energy` / `overhear` for `session` at local node `li`.
    fn energy_slot<'a, S: Seam<'a, A::Payload>>(&self, session: usize, li: usize) -> usize {
        if S::PER_NODE_ENERGY {
            session * self.owned.len() + li
        } else {
            session
        }
    }

    /// Record local node `li`'s death the first time its battery is observed depleted.
    /// With harvesting enabled, also schedule the node's harvest-until-threshold wake —
    /// exactly once per depletion episode (`death_at[li]` guards re-entry). Wakes are
    /// node-local, so they stay on the node's own queue.
    fn note_death<'a, S: Seam<'a, A::Payload>>(&mut self, s: &mut S, li: usize, t: SimTime) {
        if self.death_at[li].is_none() && self.batteries[li].is_depleted() {
            self.death_at[li] = Some(t);
            self.first_depletion = Some(self.first_depletion.map_or(t, |f| f.min(t)));
            let node = NodeId(self.owned[li]);
            if let Some(at) = s.harvest().wake_delay(node).and_then(|d| t.checked_add(d)) {
                let seq = self.harvest_seq[li];
                self.harvest_seq[li] += 1;
                let key = (RANK_HARVEST, u64::from(node.0), seq, 0, 0);
                s.schedule(at, key, NetEvent::HarvestWake { node });
            }
        }
    }

    /// Accrue local node `li`'s continuous idle-listen / sleep drain up to `t`. The
    /// drain is piecewise-linear over the duty-cycle schedule, so accruing lazily at
    /// event and sample instants books exactly the same joules as accruing continuously;
    /// a node whose battery runs dry between packets is observed dead at the next
    /// instant anything (an event, a probe, a lifetime sample) looks at it.
    fn accrue_idle<'a, S: Seam<'a, A::Payload>>(&mut self, s: &mut S, li: usize, t: SimTime) {
        let lc = s.setup().lifecycle;
        if !lc.has_continuous_drain() {
            return;
        }
        let from = self.accrued_until[li];
        if t <= from {
            return;
        }
        self.accrued_until[li] = t;
        if self.batteries[li].is_depleted() {
            return;
        }
        let awake = self.duty.awake_between(NodeId(self.owned[li]), from, t);
        let asleep = t.saturating_since(from) - awake;
        if lc.idle_listen_w > 0.0 {
            self.batteries[li]
                .accept(lc.idle_listen_w * awake.as_secs_f64(), EnergyUse::IdleListen);
        }
        if lc.sleep_w > 0.0 {
            self.batteries[li].accept(lc.sleep_w * asleep.as_secs_f64(), EnergyUse::Sleep);
        }
        self.note_death(s, li, t);
    }

    /// Accrue every owned node's continuous drain up to `t` (probes and lifetime
    /// samples need the whole fleet's liveness to be current).
    pub(super) fn accrue_all<'a, S: Seam<'a, A::Payload>>(&mut self, s: &mut S, t: SimTime) {
        if !s.setup().lifecycle.has_continuous_drain() {
            return;
        }
        for li in 0..self.owned.len() {
            self.accrue_idle(s, li, t);
        }
    }

    /// Bucket one control transmission into the steady or recovery phase.
    fn record_silence_control<'a, S: Seam<'a, A::Payload>>(
        &mut self,
        s: &S,
        session: usize,
        size_bytes: u32,
    ) {
        if !s.setup().silence.enabled {
            return;
        }
        let bucket = if self.recovering[session] {
            &mut self.silence_recovery[session]
        } else {
            &mut self.silence_steady[session]
        };
        bucket.0 += 1;
        bucket.1 += u64::from(size_bytes);
    }

    /// Apply one scheduled membership change. Sources never churn, and redundant events
    /// (joining a member, removing a non-member) are ignored, so schedules stay valid
    /// under any interleaving.
    fn apply_membership(
        &mut self,
        n_nodes: usize,
        session: usize,
        node: NodeId,
        change: MembershipChange,
    ) {
        let idx = session * n_nodes + node.index();
        match (change, self.memberships[idx]) {
            (MembershipChange::Join, GroupRole::NonMember) => {
                self.memberships[idx] = GroupRole::Member;
                self.receiver_counts[session] += 1;
                self.joins[session] += 1;
            }
            (MembershipChange::Leave, GroupRole::Member) => {
                self.memberships[idx] = GroupRole::NonMember;
                self.receiver_counts[session] -= 1;
                self.leaves[session] += 1;
            }
            _ => {}
        }
    }

    /// Run one callback of `session`'s agent at `node` and apply the actions it queued.
    fn make_ctx_and_call<'a, S, F>(
        &mut self,
        s: &mut S,
        session: usize,
        node: NodeId,
        t: SimTime,
        f: F,
    ) where
        S: Seam<'a, A::Payload>,
        F: FnOnce(&mut A, &mut NodeCtx<'_, A::Payload>),
    {
        let li = s.local(node);
        let pos = s.position(node, t);
        let setup = s.setup();
        let role = self.memberships[session * setup.n_nodes + node.index()];
        let mut actions = std::mem::take(&mut self.scratch_actions);
        actions.clear();
        {
            let mut ctx = NodeCtx::new(
                t,
                node,
                pos,
                role,
                setup.n_nodes,
                &setup.radio,
                &mut self.rngs[li],
                &mut actions,
            );
            f(&mut self.agents[session * self.owned.len() + li], &mut ctx);
        }
        self.apply_actions(s, session, node, t, pos, &mut actions);
        self.scratch_actions = actions;
    }

    /// Restart every session's agent at `node` (rejoin after a crash, harvest wake).
    /// Timers died with the node; starting the agents re-arms them, carrying whatever
    /// protocol state survived the outage — exactly the arbitrary-state situation
    /// self-stabilization must recover from.
    fn restart<'a, S: Seam<'a, A::Payload>>(&mut self, s: &mut S, node: NodeId, t: SimTime) {
        for session in 0..s.setup().n_sessions() {
            self.make_ctx_and_call(s, session, node, t, |agent, ctx| agent.start(ctx));
        }
    }

    /// Start every owned agent at time zero, session-major: session 0 first, the order
    /// the single-session goldens pin.
    pub(super) fn start_all<'a, S: Seam<'a, A::Payload>>(&mut self, s: &mut S) {
        for session in 0..s.setup().n_sessions() {
            for li in 0..self.owned.len() {
                let node = NodeId(self.owned[li]);
                self.make_ctx_and_call(s, session, node, SimTime::ZERO, |agent, ctx| {
                    agent.start(ctx)
                });
            }
        }
    }

    /// Apply the actions a protocol emitted at `node` within `session`. `pos` is the
    /// position the protocol context already saw, threaded through so broadcasts do not
    /// query the mobility model a second time at the same timestamp.
    fn apply_actions<'a, S: Seam<'a, A::Payload>>(
        &mut self,
        s: &mut S,
        session: usize,
        node: NodeId,
        t: SimTime,
        pos: Vec2,
        actions: &mut Vec<Action<A::Payload>>,
    ) {
        let sn = session as u16;
        for action in actions.drain(..) {
            match action {
                Action::Broadcast { class, size_bytes, range_m, data, payload } => {
                    let frame = PendingFrame {
                        session: sn,
                        sender: node,
                        class,
                        size_bytes,
                        range_m,
                        data,
                        payload,
                        attempt: 0,
                        requested_at: t,
                    };
                    self.try_send(s, t, Some(pos), frame);
                }
                Action::SetTimer { delay, kind, key } => {
                    let k = (RANK_TIMER, u64::from(node.0), session as u64, kind, key);
                    let id =
                        s.schedule(t + delay, k, NetEvent::Timer { session: sn, node, kind, key });
                    if let Some(old) = self.timers.insert((node.0, sn, kind, key), id) {
                        s.cancel(old);
                    }
                }
                Action::CancelTimer { kind, key } => {
                    if let Some(id) = self.timers.remove(&(node.0, sn, kind, key)) {
                        s.cancel(id);
                    }
                }
                Action::DeliverData { tag } => {
                    // Membership is enforced here, not only in protocol code: a node
                    // that left the group (or never joined it) cannot count a delivery,
                    // whatever its protocol instance believes. Only *receiving* members
                    // count — the source is the origin, never a delivery target.
                    let idx = session * s.setup().n_nodes + node.index();
                    if matches!(self.memberships[idx], GroupRole::Member) {
                        self.traces[session].record_delivery(&tag, node, t);
                    }
                }
            }
        }
    }

    /// Charge local sender `li` `joules` for one transmission and book it on
    /// `session`'s trace and silence split. Only what the battery actually held is
    /// attributed: the dying gasp of a nearly drained node books (and charges its
    /// session with) the residual energy, so per-session sums conserve the batteries'
    /// totals across depletion.
    #[allow(clippy::too_many_arguments)]
    fn book_tx<'a, S: Seam<'a, A::Payload>>(
        &mut self,
        s: &mut S,
        li: usize,
        t: SimTime,
        session: usize,
        class: PacketClass,
        size_bytes: u32,
        joules: f64,
    ) {
        let usage = match class {
            PacketClass::Control => EnergyUse::TxControl,
            PacketClass::Data => EnergyUse::TxData,
        };
        let accepted = self.batteries[li].accept(joules, usage);
        self.note_death(s, li, t);
        let slot = self.energy_slot::<S>(session, li);
        self.energy[slot] += accepted;
        match class {
            PacketClass::Control => {
                self.traces[session].record_control_tx(size_bytes);
                self.record_silence_control(s, session, size_bytes);
            }
            PacketClass::Data => self.traces[session].record_data_tx(size_bytes),
        }
    }

    /// One MAC-mediated transmission attempt: run the liveness/blackout guards, ask the
    /// MAC policy when the frame may transmit, and either put it on the air, schedule a
    /// [`NetEvent::MacRetry`], or drop it. `sender_pos` is threaded from the protocol
    /// context on the first attempt; retries pass `None` and re-query the (possibly
    /// moved) node.
    pub(super) fn try_send<'a, S: Seam<'a, A::Payload>>(
        &mut self,
        s: &mut S,
        t: SimTime,
        sender_pos: Option<Vec2>,
        frame: PendingFrame<A::Payload>,
    ) {
        let (session, sender, class, size_bytes) =
            (usize::from(frame.session), frame.sender, frame.class, frame.size_bytes);
        let li = s.local(sender);
        self.accrue_idle(s, li, t);
        if self.is_down(li) {
            return;
        }
        let radio = s.setup().radio;
        let range = radio.clamp_range(frame.range_m);
        // A blacked-out sender still pays for the transmission but nobody hears it —
        // at the requested range even under power control (its neighbourhood is
        // unknowable through a jammed link), and without wasting a neighbour query
        // whose result would be discarded. The MAC never sees these frames: carrier
        // sensing through a jammed front end is meaningless.
        if s.is_blacked_out(sender, t) {
            let joules = radio.energy.tx_energy(range, size_bytes);
            self.book_tx(s, li, t, session, class, size_bytes, joules);
            return;
        }
        if frame.attempt == 0 {
            self.mac_counts.requested += 1;
        }
        // The MAC decides when the frame hits the air. The default jitter policy draws
        // its backoff from the loss stream (one draw per frame, which the goldens pin)
        // and always transmits; the contention policies use their own seeded streams
        // and may defer or drop.
        let loss = if S::PER_SENDER_LOSS { li } else { 0 };
        let mac_frame = MacFrame { sender, class, size_bytes, attempt: frame.attempt };
        let decision =
            self.mac.access(&mac_frame, t, &radio, &self.channel, &mut self.loss_rngs[loss]);
        let tx_start = match decision {
            MacDecision::Drop => {
                self.mac_counts.drops += 1;
                return;
            }
            MacDecision::Defer { until } => {
                self.mac_counts.deferrals += 1;
                let seq = self.mac_seq[li];
                self.mac_seq[li] += 1;
                let key = (RANK_MACRETRY, u64::from(sender.0), seq, 0, 0);
                let retry = PendingFrame { range_m: range, attempt: frame.attempt + 1, ..frame };
                s.schedule(until.max(t), key, NetEvent::MacRetry(retry));
                return;
            }
            MacDecision::Transmit { at } => at.max(t),
        };
        self.mac_counts.sent += 1;
        self.mac_counts.access_delay += tx_start.saturating_since(frame.requested_at);
        self.mac_counts.airtime += radio.tx_duration(size_bytes);
        // Receivers are computed up front (the query is RNG-free, so it cannot move the
        // loss draws below) so distance-based TX power control can price the
        // transmission by its farthest actual receiver.
        let sender_pos = sender_pos.unwrap_or_else(|| s.position(sender, t));
        let mut receivers = std::mem::take(&mut self.scratch_receivers);
        s.receivers_within(sender, sender_pos, range, t, &mut receivers);
        let tx_end = tx_start + radio.tx_duration(size_bytes);
        let delivery_at = tx_start + radio.delivery_delay(size_bytes);
        let lc = s.setup().lifecycle;
        let tx_range = if lc.tx_power_control {
            // Just enough power to cover the farthest receiver; the zero-range
            // electronics term keeps the cost above the floor even with nobody in
            // range. By default a sleeping receiver still counts — the sender cannot
            // know; with the duty-aware-pricing opt-in the seeded schedule *is*
            // knowable, and receivers provably asleep at the delivery instant (they
            // would drop the frame anyway) leave the pricing set. The receiver set,
            // delays and loss draws are never affected — only the priced range.
            if lc.duty_aware_pricing && self.duty.is_on() {
                let priced: Vec<NodeId> = receivers
                    .iter()
                    .copied()
                    .filter(|&rx| self.duty.is_awake(rx, delivery_at))
                    .collect();
                s.farthest_distance(sender_pos, &priced, t).min(range)
            } else {
                s.farthest_distance(sender_pos, &receivers, t).min(range)
            }
        } else {
            range
        };
        let joules = radio.energy.tx_energy(tx_range, size_bytes);
        self.book_tx(s, li, t, session, class, size_bytes, joules);
        let tx = self.tx_seq[li];
        self.tx_seq[li] += 1;
        // MAC state rides the frame: the claim-table row is snapshotted once, when the
        // frame leaves the sender, and shared by every receiver's copy (on any shard) —
        // receivers learn from what was actually on the air, not from the sender's
        // later state.
        let piggyback: Option<Arc<[u16]>> = self.mac.piggyback_row(sender, class).map(Arc::from);
        // Receivers come back in ascending node-id order regardless of query mode, so
        // the per-receiver draws below consume the loss stream in a fixed sequence.
        for &rx in &receivers {
            let mut corrupted = false;
            if !S::CAPTURE_AT_DELIVERY {
                if self.batteries[s.local(rx)].is_depleted() {
                    continue;
                }
                corrupted = radio.collisions_enabled
                    && !self.channel.try_receive(frame.session, rx, tx_start, tx_end);
            }
            corrupted |= self.loss_rngs[loss].gen::<f64>() < radio.loss_probability;
            let packet = Packet {
                sender,
                class,
                size_bytes,
                data: frame.data,
                payload: frame.payload.clone(),
            };
            let ev = NetEvent::Deliver {
                session: frame.session,
                rx,
                packet,
                corrupted,
                tx_start,
                piggyback: piggyback.clone(),
            };
            s.deliver(
                delivery_at,
                (RANK_DELIVER, u64::from(sender.0), tx, u64::from(rx.0), 0),
                rx,
                ev,
            );
        }
        self.scratch_receivers = receivers;
    }

    /// Process one event.
    pub(super) fn dispatch<'a, S: Seam<'a, A::Payload>>(
        &mut self,
        s: &mut S,
        t: SimTime,
        ev: NetEvent<A::Payload>,
    ) {
        match ev {
            NetEvent::Deliver { session, rx, packet, mut corrupted, tx_start, piggyback } => {
                let li = s.local(rx);
                self.accrue_idle(s, li, t);
                if self.batteries[li].is_depleted() {
                    return;
                }
                let radio = &s.setup().radio;
                if S::CAPTURE_AT_DELIVERY && radio.collisions_enabled {
                    // The frame occupies a crashed, blacked-out or sleeping receiver's
                    // air regardless, just as when capture is evaluated at send time.
                    let tx_end = tx_start + radio.tx_duration(packet.size_bytes);
                    corrupted |= !self.channel.try_receive(session, rx, tx_start, tx_end);
                }
                // A crashed radio hears nothing, a frame already in flight when a
                // blackout started is lost too, and a sleeping radio misses the frame
                // entirely: no reception, no reception energy — the delivery cost of
                // duty cycling.
                if self.crashed[li] || s.is_blacked_out(rx, t) || !self.duty.is_awake(rx, t) {
                    return;
                }
                let session = usize::from(session);
                let rx_energy = radio.energy.rx_energy(packet.size_bytes);
                let slot = self.energy_slot::<S>(session, li);
                if corrupted {
                    let accepted = self.batteries[li].accept(rx_energy, EnergyUse::Overhear);
                    self.note_death(s, li, t);
                    self.energy[slot] += accepted;
                    self.overhear[slot] += accepted;
                    return;
                }
                // A clean reception teaches the MAC: TDMA learns the sender's slot
                // (and, on control frames, its piggybacked claim table) exclusively
                // through this call, at arrival.
                let p = &packet;
                self.mac.on_overheard(rx, p.sender, p.class, tx_start, piggyback.as_deref());
                let mut disposition = Disposition::Discarded;
                self.make_ctx_and_call(s, session, rx, t, |agent, ctx| {
                    disposition = agent.on_packet(ctx, &packet);
                });
                let usage = match (disposition, packet.class) {
                    (Disposition::Discarded, _) => EnergyUse::Overhear,
                    (Disposition::Consumed, PacketClass::Control) => EnergyUse::RxControl,
                    (Disposition::Consumed, PacketClass::Data) => EnergyUse::RxData,
                };
                let accepted = self.batteries[li].accept(rx_energy, usage);
                self.note_death(s, li, t);
                self.energy[slot] += accepted;
                if usage == EnergyUse::Overhear {
                    self.overhear[slot] += accepted;
                }
            }
            NetEvent::Timer { session, node, kind, key } => {
                self.timers.remove(&(node.0, session, kind, key));
                let li = s.local(node);
                self.accrue_idle(s, li, t);
                if self.is_down(li) {
                    return;
                }
                self.make_ctx_and_call(s, usize::from(session), node, t, |agent, ctx| {
                    agent.on_timer(ctx, kind, key);
                });
            }
            NetEvent::AppSend { session, seq } => {
                let sn = usize::from(session);
                let traffic = s.setup().sessions[sn].traffic;
                if t >= traffic.stop {
                    return;
                }
                let source = traffic.source;
                let li = s.local(source);
                self.accrue_idle(s, li, t);
                let tag = DataTag { group: traffic.group, origin: source, seq, created_at: t };
                self.traces[sn].record_generated(seq, t, self.receiver_counts[sn]);
                if !self.is_down(li) {
                    self.make_ctx_and_call(s, sn, source, t, |agent, ctx| {
                        agent.on_app_data(ctx, tag, traffic.packet_size_bytes);
                    });
                }
                let next = t + traffic.interval();
                if next < traffic.stop {
                    let key = (RANK_APPSEND, u64::from(session), seq + 1, 0, 0);
                    s.schedule(next, key, NetEvent::AppSend { session, seq: seq + 1 });
                }
            }
            NetEvent::Membership { session, node, change } => {
                self.apply_membership(s.setup().n_nodes, usize::from(session), node, change);
            }
            NetEvent::Fault(kind, plan_idx) => {
                // The sequential loop applies every fault itself (it may have to
                // notify the observer), and the sharded coordinator applies blackouts
                // and probed runs' seeded faults. What reaches a shard's queue lands
                // here: crash-scheduled rejoins and unprobed node-local faults.
                let _ = self.apply_fault(s, t, kind, plan_idx);
            }
            NetEvent::HarvestWake { node } => {
                let li = s.local(node);
                // Book the dark period first: `accrue_idle` advances the accrual
                // horizon but charges nothing while the battery reads depleted — a
                // powered-down node draws no idle or sleep current.
                self.accrue_idle(s, li, t);
                let restored = self.batteries[li].recharge(s.harvest().wake_energy_j());
                if restored <= 0.0 || self.batteries[li].is_depleted() {
                    return; // nothing banked (or still short): stay dark forever
                }
                self.death_at[li] = None;
                if !self.crashed[li] {
                    self.restart(s, node, t);
                }
            }
            NetEvent::MacRetry(frame) => self.try_send(s, t, None, frame),
        }
    }

    /// Apply one injected fault at time `t`; `plan_idx` is its index in the fault plan
    /// (a crash's rejoin inherits it). Returns `false` when the fault was a no-op
    /// (corrupting or re-crashing an already-down node, draining an empty battery) so
    /// probed runs do not report phantom faults to the observer.
    pub(super) fn apply_fault<'a, S: Seam<'a, A::Payload>>(
        &mut self,
        s: &mut S,
        t: SimTime,
        kind: FaultKind,
        plan_idx: u64,
    ) -> bool {
        let node = kind.node();
        let li = s.local(node);
        // Bring the target's continuous drain up to date first, so a node whose battery
        // ran dry between packets is already dead (and the fault a no-op) here.
        self.accrue_idle(s, li, t);
        match kind {
            FaultKind::Corrupt { .. } => {
                let up = !self.is_down(li);
                if up {
                    // State corruption hits the node: every session's instance there is
                    // scrambled (with the node's own seeded RNG, in session order), and
                    // so is its MAC state — a corrupted TDMA schedule must re-converge.
                    let cnt = self.owned.len();
                    for session in 0..s.setup().n_sessions() {
                        self.agents[session * cnt + li].corrupt_state(&mut self.rngs[li]);
                    }
                    // A second pass with a live context: suppressed agents re-arm their
                    // beacon timers so the scrambled state becomes visible at the base
                    // cadence, not after a backed-off interval.
                    for session in 0..s.setup().n_sessions() {
                        self.make_ctx_and_call(s, session, node, t, |agent, ctx| {
                            agent.on_corrupted(ctx)
                        });
                    }
                    self.mac.corrupt(node);
                }
                up
            }
            FaultKind::Crash { down_for, .. } => {
                if self.is_down(li) {
                    return false; // already dead — nothing changes
                }
                self.crashed[li] = true;
                if down_for != SimDuration::MAX {
                    if let Some(at) = t.checked_add(down_for) {
                        let rejoin = NetEvent::Fault(FaultKind::Rejoin { node }, plan_idx);
                        s.schedule(at, (RANK_FAULT, plan_idx, 1, 0, 0), rejoin);
                    }
                }
                true
            }
            FaultKind::Rejoin { .. } => {
                let was_down = self.crashed[li];
                if was_down {
                    self.crashed[li] = false;
                    self.restart(s, node, t);
                }
                was_down
            }
            FaultKind::Blackout { duration, .. } => {
                // The medium flag is set regardless (the blackout may outlive a crash's
                // downtime), but darkening an already-dead node's links is a no-op for
                // episode accounting — a dead node is exempt from legitimacy anyway.
                s.black_out(node, t.checked_add(duration).unwrap_or(SimTime::MAX));
                !self.is_down(li)
            }
            FaultKind::Drain { joules, .. } => {
                // An unlimited battery cannot be hurt by a spike: skip it entirely so
                // the energy report stays clean and no phantom episode opens.
                if self.batteries[li].is_unlimited() || self.batteries[li].is_depleted() {
                    return false;
                }
                self.batteries[li].drain(joules);
                self.note_death(s, li, t);
                true
            }
        }
    }

    /// Assemble the [`MacStats`] block from the MAC counters, the collision channel and
    /// the policy's own accounting.
    pub(super) fn mac_stats(&self, duration: SimDuration) -> MacStats {
        let counts = &self.mac_counts;
        let mut mac = MacStats::empty(self.mac.label());
        mac.frames_requested = counts.requested;
        mac.frames_sent = counts.sent;
        mac.mac_drops = counts.drops;
        mac.deferrals = counts.deferrals;
        mac.mean_access_delay_ms = if counts.sent > 0 {
            counts.access_delay.as_millis_f64() / counts.sent as f64
        } else {
            0.0
        };
        mac.airtime_utilization = if duration.is_zero() {
            0.0
        } else {
            counts.airtime.as_secs_f64() / duration.as_secs_f64()
        };
        mac.receptions = self.channel.receptions();
        mac.collisions = self.channel.collisions();
        mac.collision_rate =
            if mac.receptions > 0 { mac.collisions as f64 / mac.receptions as f64 } else { 0.0 };
        self.mac.fill_stats(&mut mac);
        mac
    }
}

/// Probe-assembly buffers, reused across probed instants (a fault burst at n = 100k
/// would otherwise allocate three fleet-sized vectors per probed instant).
#[derive(Default)]
pub(super) struct ProbeScratch {
    /// Snapshot built for the latest probed instant, reused across the observer
    /// notifications of a simultaneous fault burst (positions cannot change within one
    /// timestamp, and a burst would otherwise rebuild the spatial index once per
    /// corrupted node).
    snapshot: Option<(SimTime, TopologySnapshot)>,
    parents: Vec<Option<NodeId>>,
    alive: Vec<bool>,
    blacked_out: Vec<bool>,
}

/// Bring every core's continuous drain up to `t`, build a [`ProbeContext`] over all of
/// them and hand it to the observer (as an epoch probe, or as a fault notification when
/// `fault` is set); then refresh every core's per-session recovery flags from it.
/// `parts` holds every core of the run with its seam, in shard order.
pub(super) fn observe<'a, A: ProtocolAgent, S: Seam<'a, A::Payload>>(
    parts: &mut [(&mut NodeCore<A>, S)],
    scratch: &mut ProbeScratch,
    t: SimTime,
    observer: &mut dyn StabilizationObserver,
    fault: Option<&FaultKind>,
) {
    for (core, s) in parts.iter_mut() {
        core.accrue_all(s, t);
    }
    let setup = parts[0].1.setup();
    let (n, n_sessions) = (setup.n_nodes, setup.n_sessions());
    if !matches!(&scratch.snapshot, Some((st, _)) if *st == t) {
        let positions = parts[0].1.positions(t).to_vec();
        scratch.snapshot = Some((t, TopologySnapshot::new(positions, setup.radio.max_range_m)));
    }
    let ProbeScratch { snapshot, parents, alive, blacked_out } = scratch;
    parents.clear();
    parents.resize(n * n_sessions, None);
    alive.clear();
    alive.resize(n, false);
    for (core, _) in parts.iter() {
        let cnt = core.owned.len();
        for (li, &gi) in core.owned.iter().enumerate() {
            let gi = gi as usize;
            alive[gi] = !core.is_down(li);
            for sn in 0..n_sessions {
                parents[sn * n + gi] = core.agents[sn * cnt + li].tree_parent();
            }
        }
    }
    // Blackout is reported separately from liveness: a blacked-out node still runs
    // (and still counts as a member to serve), its links are just unusable.
    let seam = &parts[0].1;
    blacked_out.clear();
    blacked_out.extend((0..n).map(|i| seam.is_blacked_out(NodeId(i as u32), t)));
    let core_of = |gi: usize| {
        let node = NodeId(gi as u32);
        (&*parts[seam.shard(node)].0, seam.local(node))
    };
    // One view per session: that session's parents, its churn-updated roles, and its
    // own running counters (so per-session recovery accounting does not charge one
    // session with another's traffic).
    let sessions: Vec<SessionProbe<'_>> = (0..n_sessions)
        .map(|sn| SessionProbe {
            parents: &parents[sn * n..(sn + 1) * n],
            roles: &parts[0].0.memberships[sn * n..(sn + 1) * n],
            control_packets: parts.iter().map(|(c, _)| c.traces[sn].control_packets()).sum(),
            data_packets: parts.iter().map(|(c, _)| c.traces[sn].data_packets_tx()).sum(),
            energy_j: if S::PER_NODE_ENERGY {
                let mut acc = 0.0f64;
                for gi in 0..n {
                    let (core, li) = core_of(gi);
                    acc += core.energy[core.energy_slot::<S>(sn, li)];
                }
                acc
            } else {
                parts[0].0.energy[sn]
            },
        })
        .collect();
    let ctx = ProbeContext {
        now: t,
        snapshot: &snapshot.as_ref().expect("primed above").1,
        sessions: &sessions,
        alive,
        blacked_out,
        control_packets: sessions.iter().map(|p| p.control_packets).sum(),
        data_packets: sessions.iter().map(|p| p.data_packets).sum(),
        energy_j: (0..n)
            .map(|gi| {
                let (core, li) = core_of(gi);
                core.batteries[li].consumed()
            })
            .sum(),
    };
    match fault {
        Some(kind) => observer.on_fault(kind, &ctx),
        None => observer.on_epoch(&ctx),
    }
    drop(sessions);
    if setup.silence.enabled {
        let flags: Vec<bool> = (0..n_sessions).map(|sn| observer.session_recovering(sn)).collect();
        for (core, _) in parts.iter_mut() {
            core.recovering.copy_from_slice(&flags);
        }
    }
}

/// The lifetime curves a run samples while it tracks the energy lifecycle.
pub(super) struct Curves {
    /// Battery-alive node count at each lifetime sample epoch (bounded ring in
    /// streaming mode, plain unbounded buffer in exact mode).
    pub(super) alive: CurveRing<u64>,
    /// Cumulative delivery ratio at each lifetime sample epoch.
    pub(super) delivery: CurveRing<f64>,
}

impl Curves {
    /// Empty curves under `setup`'s metrics mode.
    pub(super) fn new(setup: &SimSetup) -> Self {
        let budget = setup.metrics.curve_budget();
        Curves { alive: CurveRing::with_budget(budget), delivery: CurveRing::with_budget(budget) }
    }

    /// Record one lifetime sample at `t` over every core of the run: battery-alive
    /// population and cumulative delivery ratio.
    pub(super) fn sample<'a, A: ProtocolAgent, S: Seam<'a, A::Payload>>(
        &mut self,
        parts: &mut [(&mut NodeCore<A>, S)],
        t: SimTime,
    ) {
        let (mut alive, mut delivered, mut expected) = (0u64, 0u64, 0u64);
        for (core, s) in parts.iter_mut() {
            core.accrue_all(s, t);
            alive += core.batteries.iter().filter(|b| !b.is_depleted()).count() as u64;
            delivered += core.traces.iter().map(Trace::delivered_count).sum::<u64>();
            expected += core.traces.iter().map(Trace::expected_deliveries).sum::<u64>();
        }
        self.alive.push(alive);
        self.delivery.push(if expected > 0 { delivered as f64 / expected as f64 } else { 0.0 });
    }
}
