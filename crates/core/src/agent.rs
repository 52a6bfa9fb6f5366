//! Event-driven SS-SPST agent for the MANET simulator.
//!
//! One [`SsSpstAgent`] runs on every node. Its cost metric selects SS-SPST, -T, -F, -E
//! or, under [`MetricKind::Bottleneck`], the minimum-bottleneck tree SS-MST. Each beacon
//! interval the agent
//!
//! 1. expires neighbours it has not heard from,
//! 2. re-evaluates the guarded commands (same rules as [`crate::sync_model`], but over the
//!    beacon-built neighbour table instead of global knowledge),
//! 3. recomputes its bottom-up pruning flag, and
//! 4. broadcasts its own beacon at maximum range.
//!
//! Data packets flow down the tree: a node accepts data only from its current parent,
//! delivers it locally if it is a member, and re-broadcasts it with just enough power to
//! reach its farthest child that still leads to members. Data heard from any other node is
//! overhearing and is discarded — exactly the energy the SS-SPST-E metric tries to avoid.

use crate::beacon::Beacon;
use crate::metric::{cost_via, MetricKind, MetricParams, ParentView};
use crate::sync_model::choose_parent;
use ssmcast_dessim::{SimDuration, SimTime};
use ssmcast_manet::{
    DataTag, Disposition, NodeCtx, NodeId, Packet, ProtocolAgent, SeqSet, SilenceConfig, Vec2,
};

/// Timer class used for the periodic beacon.
const TIMER_BEACON: u64 = 1;

/// A neighbour is dropped after this many beacon intervals of silence.
const NEIGHBOR_TIMEOUT_INTERVALS: f64 = 2.5;

/// Data transmissions reach the farthest relevant child scaled by this margin, to
/// absorb movement since the child's last beacon.
const RANGE_MARGIN: f64 = 1.10;

/// Per-node bookkeeping for adaptive beacon suppression ("silent stabilization").
///
/// A node that has observed [`SilenceConfig::QUIET_ROUNDS`] consecutive beacon rounds
/// with its local legitimacy predicate holding backs its beacon cadence off
/// exponentially, up to the configured cap. Any evidence of illegitimacy — a neighbour
/// appearing or expiring, a parent change, state corruption, or an overheard beacon
/// inconsistent with the cached neighbour view — resets the state and snaps the cadence
/// back to the base interval.
#[derive(Clone, Copy, Debug, Default)]
struct SilenceState {
    /// Consecutive quiet rounds observed since the last evidence.
    quiet_rounds: u32,
    /// Current backoff level; the beacon interval is `base * factor^level` (capped).
    level: u32,
    /// Evidence of illegitimacy seen since the last round closed.
    evidence: bool,
}

impl SilenceState {
    /// The beacon interval at the current backoff level.
    fn interval(&self, cfg: &SilenceConfig, base: SimDuration) -> SimDuration {
        cfg.interval_at(base, self.level)
    }

    /// Record evidence of illegitimacy. Returns true when the beacon timer was backed
    /// off, i.e. the caller must cancel it and reschedule at the base cadence.
    fn note_evidence(&mut self) -> bool {
        let was_suppressed = self.level > 0;
        self.evidence = true;
        self.quiet_rounds = 0;
        self.level = 0;
        was_suppressed
    }

    /// Close one beacon round: a round is quiet when the local legitimacy predicate
    /// held and no evidence arrived since the previous round.
    fn close_round(&mut self, cfg: &SilenceConfig, locally_legitimate: bool) {
        if !cfg.enabled {
            return;
        }
        let quiet = locally_legitimate && !self.evidence;
        self.evidence = false;
        if quiet {
            self.quiet_rounds = self.quiet_rounds.saturating_add(1);
            if self.quiet_rounds >= SilenceConfig::QUIET_ROUNDS {
                self.level = (self.level + 1).min(64);
            }
        } else {
            self.quiet_rounds = 0;
            self.level = 0;
        }
    }
}

/// Wire payload of the SS-SPST family: either a beacon or a data frame (whose application
/// identity travels in [`ssmcast_manet::Packet::data`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SsSpstPayload {
    /// Periodic control beacon.
    Beacon(Beacon),
    /// Multicast data being forwarded down the tree.
    Data,
}

/// Configuration of an [`SsSpstAgent`].
#[derive(Clone, Copy, Debug)]
pub struct SsSpstConfig {
    /// Which cost metric to stabilize (selects SS-SPST, -T, -F, -E or SS-MST).
    pub kind: MetricKind,
    /// Energy-pricing parameters.
    pub params: MetricParams,
    /// Beacon interval (the paper uses 2 s unless it is the swept parameter).
    pub beacon_interval: SimDuration,
    /// Adaptive beacon suppression. Off by default, which keeps the classic wire
    /// format and cadence byte for byte.
    pub silence: SilenceConfig,
}

impl SsSpstConfig {
    /// The paper's defaults for a given metric: 2 s beacons, suppression off. The
    /// 2.5-interval neighbour timeout, 10 % range margin and 5 % switch hysteresis are
    /// fixed.
    pub fn paper_default(kind: MetricKind) -> Self {
        SsSpstConfig {
            kind,
            params: MetricParams::default(),
            beacon_interval: SimDuration::from_secs(2),
            silence: SilenceConfig::off(),
        }
    }

    /// Same defaults but with a custom beacon interval (Figures 10 and 11).
    pub fn with_beacon_interval(kind: MetricKind, interval: SimDuration) -> Self {
        SsSpstConfig { beacon_interval: interval, ..Self::paper_default(kind) }
    }
}

/// What this node last heard from one neighbour.
#[derive(Clone, Debug)]
struct NeighborEntry {
    /// The neighbour as a candidate parent: its advertised cost and hop, the distances
    /// to its children other than this node and, from SS-SPST-E beacons, to its
    /// potential overhearers.
    view: ParentView,
    /// Distance to the neighbour, derived from the position it advertised.
    distance: f64,
    member: bool,
    has_downstream_member: bool,
    /// True if the neighbour's advertised parent is this node (i.e. it is our child).
    parent_is_me: bool,
    last_heard: SimTime,
    /// Staleness bound for this entry. Scales with the neighbour's advertised
    /// next-beacon bound under suppression, so a correctly silent neighbour is not
    /// falsely expired.
    timeout: SimDuration,
}

/// The per-node SS-SPST protocol state machine.
#[derive(Debug)]
pub struct SsSpstAgent {
    config: SsSpstConfig,
    cost: f64,
    hop: u32,
    parent: Option<NodeId>,
    infinity_cost: f64,
    max_hops: u32,
    has_downstream_member: bool,
    /// The neighbour table, sorted by node id: lookups binary-search it and every walk
    /// (candidate parents, beacon child lists, corruption) visits neighbours in id order.
    neighbors: Vec<(NodeId, NeighborEntry)>,
    seen_data: SeqSet,
    silence: SilenceState,
}

impl SsSpstAgent {
    /// Create an agent with the given configuration.
    pub fn new(config: SsSpstConfig) -> Self {
        SsSpstAgent {
            config,
            cost: f64::INFINITY,
            hop: u32::MAX,
            parent: None,
            infinity_cost: f64::INFINITY,
            max_hops: u32::MAX,
            has_downstream_member: false,
            neighbors: Vec::new(),
            seen_data: SeqSet::new(),
            silence: SilenceState::default(),
        }
    }

    /// Current parent (None while disconnected or at the source).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Current accumulated cost `l_v`.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Current hop count `h_v`.
    pub fn hop(&self) -> u32 {
        self.hop
    }

    /// True if this node currently believes its subtree contains a group member.
    pub fn has_downstream_member(&self) -> bool {
        self.has_downstream_member
    }

    /// Staleness bound for a neighbour that just sent `b`. With suppression enabled
    /// the bound tracks the beacon's advertised next-beacon time, never less than the
    /// configured interval; with suppression off it is the classic fixed timeout.
    fn timeout_for(&self, b: &Beacon) -> SimDuration {
        let base = if self.config.silence.enabled {
            let interval_s = self.config.beacon_interval.as_secs_f64();
            SimDuration::from_secs_f64(b.next_beacon_s.max(interval_s))
        } else {
            self.config.beacon_interval
        };
        base.mul_f64(NEIGHBOR_TIMEOUT_INTERVALS)
    }

    /// Where `id` sits in the neighbour table: `Ok` at its entry, `Err` where it would go.
    fn slot(&self, id: NodeId) -> Result<usize, usize> {
        self.neighbors.binary_search_by_key(&id, |(u, _)| *u)
    }

    /// The neighbour entries, in id order.
    fn entries(&self) -> impl Iterator<Item = &NeighborEntry> {
        self.neighbors.iter().map(|(_, e)| e)
    }

    /// Drop stale neighbours; returns true when any entry expired (evidence of a
    /// topology change under suppression).
    fn expire_neighbors(&mut self, now: SimTime) -> bool {
        let before = self.neighbors.len();
        self.neighbors.retain(|(_, e)| now.saturating_since(e.last_heard) <= e.timeout);
        self.neighbors.len() != before
    }

    /// The local legitimacy predicate of the silence detector: the source is always
    /// legitimate; any other node is legitimate when it has a live parent and a
    /// finite cost. Quiet rounds are rounds in which this predicate held and no
    /// evidence (expiry, parent change, inconsistent beacon, corruption) arrived.
    fn locally_legitimate(&self, ctx: &NodeCtx<'_, SsSpstPayload>) -> bool {
        if ctx.is_source() {
            return true;
        }
        match self.parent {
            Some(p) => self.slot(p).is_ok() && self.cost < self.infinity_cost,
            None => false,
        }
    }

    /// The `E_init` / hop bound used by the guarded commands, derived from network size
    /// and radio limits the first time the agent runs.
    fn initialise_bounds(&mut self, ctx: &NodeCtx<'_, SsSpstPayload>) {
        self.max_hops = ctx.n_nodes.max(1) as u32;
        self.infinity_cost =
            self.config.kind.infinity_cost(&self.config.params, ctx.n_nodes, ctx.radio.max_range_m);
        if self.cost.is_infinite() {
            self.cost = self.infinity_cost;
            self.hop = self.max_hops;
        }
    }

    /// Re-evaluate the guarded commands against the current neighbour table.
    fn stabilize(&mut self, ctx: &NodeCtx<'_, SsSpstPayload>) {
        if ctx.is_source() {
            self.cost = 0.0;
            self.hop = 0;
            self.parent = None;
            return;
        }
        let (kind, params) = (self.config.kind, &self.config.params);
        let candidates = self
            .neighbors
            .iter()
            .filter(|(_, e)| {
                e.view.cost < self.infinity_cost
                    && e.view.hop.saturating_add(1) <= self.max_hops
                    // Loop guard for the minimax metric (see `MetricKind::is_additive`):
                    // a neighbour claiming this node as its parent is downstream of us.
                    && (kind.is_additive() || !e.parent_is_me)
            })
            .map(|(u, e)| (*u, cost_via(kind, params, &e.view, e.distance), e.view.hop + 1));
        (self.parent, self.cost, self.hop) = match choose_parent(candidates, self.parent, true) {
            Some((u, cost, hop)) => (Some(u), cost, hop),
            None => (None, self.infinity_cost, self.max_hops),
        };
    }

    /// Recompute the bottom-up pruning flag from the children's advertised flags.
    fn refresh_downstream_flag(&mut self, ctx: &NodeCtx<'_, SsSpstPayload>) {
        let from_children = self.entries().any(|e| e.parent_is_me && e.has_downstream_member);
        self.has_downstream_member = ctx.is_member() || from_children;
    }

    /// Broadcast the data identified by `tag`, if this node has anyone to forward it to.
    ///
    /// The energy-based metrics use power control (reach the farthest relevant child,
    /// plus a margin for movement since its last beacon); plain SS-SPST is not
    /// energy-aware and transmits at full power, exactly the behaviour its hop metric
    /// prices at zero.
    fn forward_data(&self, ctx: &mut NodeCtx<'_, SsSpstPayload>, tag: DataTag, size: u32) {
        // The farthest child that leads to group members; none means nothing to forward.
        let Some(far) = self
            .entries()
            .filter(|e| e.parent_is_me && e.has_downstream_member)
            .map(|e| e.distance)
            .reduce(f64::max)
        else {
            return;
        };
        let range = if self.config.kind.is_energy_based() {
            (far * RANGE_MARGIN).min(ctx.radio.max_range_m)
        } else {
            ctx.radio.max_range_m
        };
        ctx.broadcast_data(size, range, tag, SsSpstPayload::Data);
    }

    /// Emit this node's beacon.
    fn send_beacon(&mut self, ctx: &mut NodeCtx<'_, SsSpstPayload>) {
        let children: Vec<(NodeId, f64)> = self
            .neighbors
            .iter()
            .filter(|(_, e)| e.parent_is_me)
            .map(|(id, e)| (*id, e.distance))
            .collect();
        let non_member_neighbor_distances = if self.config.kind == MetricKind::EnergyAware {
            self.neighbors
                .iter()
                .filter(|(id, e)| !e.member && !e.parent_is_me && self.parent != Some(*id))
                .map(|(_, e)| e.distance)
                .collect()
        } else {
            Vec::new()
        };
        let interval = self.silence.interval(&self.config.silence, self.config.beacon_interval);
        let beacon = Beacon {
            position: ctx.position,
            cost: self.cost,
            hop: self.hop,
            parent: self.parent,
            member: ctx.is_member(),
            has_downstream_member: self.has_downstream_member,
            children,
            non_member_neighbor_distances,
            // The next beacon leaves at most 0.95·interval + 0.1·interval from now.
            next_beacon_s: interval.mul_f64(1.05).as_secs_f64(),
        };
        let size = beacon.advertised_wire_size(self.config.kind, self.config.silence.enabled);
        ctx.broadcast_control(size, ctx.radio.max_range_m, SsSpstPayload::Beacon(beacon));
    }

    fn schedule_next_beacon(&self, ctx: &mut NodeCtx<'_, SsSpstPayload>) {
        // Desynchronise beacons slightly so they do not all collide every interval.
        let interval = self.silence.interval(&self.config.silence, self.config.beacon_interval);
        let jitter = ctx.jitter(interval.mul_f64(0.1));
        let delay = interval.mul_f64(0.95) + jitter;
        ctx.set_timer(delay, TIMER_BEACON, 0);
    }
}

impl NeighborEntry {
    fn from_beacon(
        me: NodeId,
        my_pos: Vec2,
        b: &Beacon,
        now: SimTime,
        timeout: SimDuration,
    ) -> Self {
        NeighborEntry {
            view: ParentView {
                cost: b.cost,
                hop: b.hop,
                child_distances: b
                    .children
                    .iter()
                    .filter(|(c, _)| *c != me)
                    .map(|(_, d)| *d)
                    .collect(),
                non_member_neighbor_distances: b.non_member_neighbor_distances.clone(),
            },
            distance: my_pos.distance(&b.position),
            member: b.member,
            has_downstream_member: b.has_downstream_member,
            parent_is_me: b.parent == Some(me),
            last_heard: now,
            timeout,
        }
    }
}

impl ProtocolAgent for SsSpstAgent {
    type Payload = SsSpstPayload;

    fn start(&mut self, ctx: &mut NodeCtx<'_, SsSpstPayload>) {
        self.initialise_bounds(ctx);
        if ctx.is_source() {
            self.cost = 0.0;
            self.hop = 0;
        }
        self.has_downstream_member = ctx.is_member();
        // The first beacon uses the same 0.95·I + U(0, 0.1·I) draw as every later
        // round, so the mean beacon period is exactly the configured interval from
        // round one; the per-node jitter still desynchronises the network so beacons
        // do not all fire in lockstep.
        self.schedule_next_beacon(ctx);
    }

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, SsSpstPayload>,
        packet: &Packet<SsSpstPayload>,
    ) -> Disposition {
        match &packet.payload {
            SsSpstPayload::Beacon(beacon) => {
                let timeout = self.timeout_for(beacon);
                let entry =
                    NeighborEntry::from_beacon(ctx.id, ctx.position, beacon, ctx.now, timeout);
                let slot = self.slot(packet.sender);
                if self.config.silence.enabled {
                    // A brand-new neighbour, or a beacon disagreeing with the cached
                    // view of the sender, is evidence the tree may be reshaping.
                    let inconsistent = match slot {
                        Err(_) => true,
                        Ok(i) => {
                            let prev = &self.neighbors[i].1;
                            prev.parent_is_me != entry.parent_is_me
                                || prev.view.hop != entry.view.hop
                                || prev.member != entry.member
                                || prev.has_downstream_member != entry.has_downstream_member
                        }
                    };
                    if inconsistent && self.silence.note_evidence() {
                        // Snap a backed-off beacon timer back to the base cadence.
                        ctx.cancel_timer(TIMER_BEACON, 0);
                        self.schedule_next_beacon(ctx);
                    }
                }
                match slot {
                    Ok(i) => self.neighbors[i].1 = entry,
                    Err(i) => self.neighbors.insert(i, (packet.sender, entry)),
                }
                Disposition::Consumed
            }
            SsSpstPayload::Data => {
                let Some(tag) = packet.data else { return Disposition::Discarded };
                // Tree semantics: only data arriving from the current parent is mine to
                // consume; everything else is overhearing.
                if Some(packet.sender) != self.parent {
                    return Disposition::Discarded;
                }
                if !self.seen_data.insert(tag.seq) {
                    return Disposition::Discarded;
                }
                if ctx.is_member() && !ctx.is_source() {
                    ctx.deliver_data(tag);
                }
                self.forward_data(ctx, tag, packet.size_bytes);
                Disposition::Consumed
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, SsSpstPayload>, kind: u64, _key: u64) {
        if kind != TIMER_BEACON {
            return;
        }
        self.initialise_bounds(ctx);
        let expired = self.expire_neighbors(ctx.now);
        let parent_before = self.parent;
        self.stabilize(ctx);
        self.refresh_downstream_flag(ctx);
        if self.config.silence.enabled {
            if expired || self.parent != parent_before {
                self.silence.note_evidence();
            }
            let legitimate = self.locally_legitimate(ctx);
            self.silence.close_round(&self.config.silence, legitimate);
        }
        self.send_beacon(ctx);
        self.schedule_next_beacon(ctx);
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, SsSpstPayload>, tag: DataTag, size: u32) {
        self.seen_data.insert(tag.seq);
        self.forward_data(ctx, tag, size);
    }

    fn label(&self) -> &'static str {
        self.config.kind.protocol_name()
    }

    fn tree_parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Scramble every stabilization variable with the node's seeded RNG: cost, hop,
    /// parent pointer, pruning flag, and the cached neighbour views the guarded
    /// commands read. Self-stabilization means the protocol must converge back to a
    /// legitimate tree from *any* of these states.
    fn corrupt_state(&mut self, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        // Corruption is evidence of illegitimacy: a suppressed node resumes the base
        // cadence at its next beacon round instead of staying silent while broken.
        self.silence.note_evidence();
        let bound = if self.infinity_cost.is_finite() { self.infinity_cost * 2.0 } else { 1.0e6 };
        self.cost = rng.gen::<f64>() * bound;
        self.hop = rng.gen::<u32>();
        self.parent = ssmcast_manet::scrambled_parent(rng);
        self.has_downstream_member = rng.gen::<bool>();
        // The table is in id order, so the RNG draws are reproducible.
        for (_, entry) in &mut self.neighbors {
            entry.view.cost = rng.gen::<f64>() * bound;
            entry.view.hop = rng.gen::<u32>();
            entry.parent_is_me = rng.gen::<bool>();
            entry.has_downstream_member = rng.gen::<bool>();
        }
    }

    fn on_corrupted(&mut self, ctx: &mut NodeCtx<'_, SsSpstPayload>) {
        if !self.config.silence.enabled {
            return;
        }
        // `corrupt_state` already noted the evidence and reset the backoff level; the
        // beacon timer armed under the old suppressed cadence would still keep the
        // scrambled state invisible for up to the heartbeat floor. Re-arm it at the
        // base interval so neighbours see the corruption within one beacon round.
        ctx.cancel_timer(TIMER_BEACON, 0);
        self.schedule_next_beacon(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssmcast_manet::{Action, GroupRole, PacketClass, RadioConfig};

    struct Harness {
        radio: RadioConfig,
        rng: StdRng,
        actions: Vec<Action<SsSpstPayload>>,
    }

    impl Harness {
        fn new() -> Self {
            Self::with_seed(5)
        }

        fn with_seed(seed: u64) -> Self {
            Harness {
                radio: RadioConfig::default(),
                rng: StdRng::seed_from_u64(seed),
                actions: Vec::new(),
            }
        }

        fn ctx<'a>(
            &'a mut self,
            now: SimTime,
            id: NodeId,
            pos: Vec2,
            role: GroupRole,
        ) -> NodeCtx<'a, SsSpstPayload> {
            self.actions.clear();
            NodeCtx::new(now, id, pos, role, 10, &self.radio, &mut self.rng, &mut self.actions)
        }
    }

    fn beacon_from(cost: f64, hop: u32, pos: Vec2, member: bool, downstream: bool) -> Beacon {
        Beacon {
            position: pos,
            cost,
            hop,
            parent: None,
            member,
            has_downstream_member: downstream,
            children: vec![],
            non_member_neighbor_distances: vec![],
            next_beacon_s: 2.0,
        }
    }

    fn beacon_size(actions: &[Action<SsSpstPayload>]) -> u32 {
        actions
            .iter()
            .find_map(|a| match a {
                Action::Broadcast { class: PacketClass::Control, size_bytes, .. } => {
                    Some(*size_bytes)
                }
                _ => None,
            })
            .expect("beacon emitted")
    }

    fn timer_delay(actions: &[Action<SsSpstPayload>]) -> SimDuration {
        actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { delay, kind: TIMER_BEACON, .. } => Some(*delay),
                _ => None,
            })
            .expect("a beacon timer must be scheduled")
    }

    #[test]
    fn start_schedules_a_beacon_timer_and_sets_source_state() {
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::EnergyAware));
        {
            let mut ctx = h.ctx(SimTime::ZERO, NodeId(0), Vec2::ZERO, GroupRole::Source);
            agent.start(&mut ctx);
        }
        assert_eq!(agent.cost(), 0.0);
        assert_eq!(agent.hop(), 0);
        assert!(agent.has_downstream_member());
        assert!(matches!(h.actions[0], Action::SetTimer { kind: TIMER_BEACON, .. }));
    }

    #[test]
    fn beacon_reception_populates_neighbor_table_and_stabilization_picks_a_parent() {
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::EnergyAware));
        let me = NodeId(2);
        let my_pos = Vec2::new(100.0, 0.0);
        {
            let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
            agent.start(&mut ctx);
        }
        // Hear the source's beacon from 100 m away.
        let pkt = Packet::control(
            NodeId(0),
            32,
            SsSpstPayload::Beacon(beacon_from(0.0, 0, Vec2::ZERO, true, true)),
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
            assert_eq!(agent.on_packet(&mut ctx, &pkt), Disposition::Consumed);
        }
        // Beacon timer fires: the agent stabilizes onto the source and emits its own beacon.
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(agent.parent(), Some(NodeId(0)));
        assert!(agent.cost() < agent.infinity_cost);
        assert_eq!(agent.hop(), 1);
        assert!(agent.has_downstream_member(), "members always set the pruning flag");
        let broadcast = h.actions.iter().find(|a| matches!(a, Action::Broadcast { .. }));
        assert!(broadcast.is_some(), "a beacon must be emitted every interval");
        if let Some(Action::Broadcast { class, payload, .. }) = broadcast {
            assert_eq!(*class, PacketClass::Control);
            assert!(matches!(payload, SsSpstPayload::Beacon(_)));
        }
    }

    #[test]
    fn stale_neighbors_are_expired_and_the_node_detaches() {
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::Hop));
        let me = NodeId(2);
        let my_pos = Vec2::new(100.0, 0.0);
        {
            let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
            agent.start(&mut ctx);
        }
        let pkt = Packet::control(
            NodeId(0),
            32,
            SsSpstPayload::Beacon(beacon_from(0.0, 0, Vec2::ZERO, true, true)),
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
            agent.on_packet(&mut ctx, &pkt);
        }
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(agent.parent(), Some(NodeId(0)));
        // No further beacons: after the timeout (2.5 × 2 s) the neighbour is dropped and the
        // node falls back to the disconnected state.
        {
            let mut ctx = h.ctx(SimTime::from_secs(10), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(agent.parent(), None, "losing all beacons is a fault; the node detaches");
        assert!(agent.cost() >= agent.infinity_cost);
    }

    #[test]
    fn data_from_parent_is_delivered_and_forwarded_data_from_others_is_overheard() {
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::EnergyAware));
        let me = NodeId(2);
        let my_pos = Vec2::new(100.0, 0.0);
        {
            let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
            agent.start(&mut ctx);
        }
        // Learn about the source and a downstream child (node 5) that claims us as parent.
        let src_beacon = Packet::control(
            NodeId(0),
            32,
            SsSpstPayload::Beacon(beacon_from(0.0, 0, Vec2::ZERO, true, true)),
        );
        let mut child_beacon_inner = beacon_from(10.0, 2, Vec2::new(180.0, 0.0), true, true);
        child_beacon_inner.parent = Some(me);
        let child_beacon =
            Packet::control(NodeId(5), 32, SsSpstPayload::Beacon(child_beacon_inner));
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
            agent.on_packet(&mut ctx, &src_beacon);
            agent.on_packet(&mut ctx, &child_beacon);
        }
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(agent.parent(), Some(NodeId(0)));

        let tag = DataTag {
            group: Default::default(),
            origin: NodeId(0),
            seq: 1,
            created_at: SimTime::from_secs(3),
        };
        let data_from_parent = Packet::data(NodeId(0), 512, tag, SsSpstPayload::Data);
        let disposition;
        let actions_snapshot;
        {
            let mut ctx = h.ctx(SimTime::from_secs(3), me, my_pos, GroupRole::Member);
            disposition = agent.on_packet(&mut ctx, &data_from_parent);
            actions_snapshot = h.actions.clone();
        }
        assert_eq!(disposition, Disposition::Consumed);
        assert!(
            actions_snapshot.iter().any(|a| matches!(a, Action::DeliverData { .. })),
            "member delivers data locally"
        );
        assert!(
            actions_snapshot
                .iter()
                .any(|a| matches!(a, Action::Broadcast { class: PacketClass::Data, .. })),
            "node forwards to its downstream child"
        );

        // A duplicate, or data from a non-parent, is pure overhearing.
        {
            let mut ctx = h.ctx(SimTime::from_secs(3), me, my_pos, GroupRole::Member);
            assert_eq!(agent.on_packet(&mut ctx, &data_from_parent), Disposition::Discarded);
        }
        let tag2 = DataTag { seq: 2, ..tag };
        let stranger = Packet::data(NodeId(9), 512, tag2, SsSpstPayload::Data);
        {
            let mut ctx = h.ctx(SimTime::from_secs(4), me, my_pos, GroupRole::Member);
            assert_eq!(agent.on_packet(&mut ctx, &stranger), Disposition::Discarded);
        }
    }

    #[test]
    fn leaf_without_downstream_members_does_not_forward() {
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::EnergyAware));
        let me = NodeId(3);
        {
            let mut ctx = h.ctx(SimTime::ZERO, me, Vec2::ZERO, GroupRole::NonMember);
            agent.start(&mut ctx);
        }
        let tag = DataTag {
            group: Default::default(),
            origin: NodeId(0),
            seq: 1,
            created_at: SimTime::ZERO,
        };
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), me, Vec2::ZERO, GroupRole::NonMember);
            agent.on_app_data(&mut ctx, tag, 512);
        }
        assert!(
            !h.actions.iter().any(|a| matches!(a, Action::Broadcast { .. })),
            "nothing to forward to: the pruned branch stays silent"
        );
    }

    #[test]
    fn energy_aware_beacons_are_larger_than_plain_ones() {
        // Drive two agents through the same neighbourhood and compare emitted beacon sizes.
        let run = |kind: MetricKind| -> u32 {
            let mut h = Harness::new();
            let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(kind));
            let me = NodeId(1);
            let my_pos = Vec2::new(50.0, 0.0);
            {
                let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
                agent.start(&mut ctx);
            }
            // A non-member neighbour that is not a tree neighbour: SS-SPST-E advertises it.
            let nb = Packet::control(
                NodeId(7),
                32,
                SsSpstPayload::Beacon(beacon_from(5.0, 1, Vec2::new(120.0, 0.0), false, false)),
            );
            {
                let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
                agent.on_packet(&mut ctx, &nb);
            }
            {
                let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
                agent.on_timer(&mut ctx, TIMER_BEACON, 0);
            }
            beacon_size(&h.actions)
        };
        assert!(run(MetricKind::EnergyAware) > run(MetricKind::Hop));
    }

    #[test]
    fn first_beacon_uses_the_steady_state_cadence() {
        // Satellite fix: the first beacon must draw from the same 0.95·I + U(0, 0.1·I)
        // model as every later round, so the mean period is exactly the beacon
        // interval from round one (it used to be U(0, I), mean I/2).
        let interval = SimDuration::from_secs(2).as_secs_f64();
        let reps = 300u64;
        let mut sum = 0.0;
        for seed in 0..reps {
            let mut h = Harness::with_seed(seed);
            let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::Hop));
            {
                let mut ctx = h.ctx(SimTime::ZERO, NodeId(1), Vec2::ZERO, GroupRole::Member);
                agent.start(&mut ctx);
            }
            let first = timer_delay(&h.actions).as_secs_f64();
            assert!(
                (interval * 0.95..=interval * 1.05).contains(&first),
                "first beacon delay {first} outside the steady-state cadence band"
            );
            {
                let mut ctx =
                    h.ctx(SimTime::from_secs(2), NodeId(1), Vec2::ZERO, GroupRole::Member);
                agent.on_timer(&mut ctx, TIMER_BEACON, 0);
            }
            let steady = timer_delay(&h.actions).as_secs_f64();
            assert!(
                (interval * 0.95..=interval * 1.05).contains(&steady),
                "steady-state delay {steady} outside the cadence band"
            );
            sum += first;
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - interval).abs() < 0.02,
            "mean first-beacon period {mean} should be the configured interval {interval}"
        );
    }

    #[test]
    fn quiet_rounds_back_the_beacon_cadence_off_to_the_cap() {
        let mut config = SsSpstConfig::paper_default(MetricKind::Hop);
        config.silence = SilenceConfig::on();
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(config);
        {
            let mut ctx = h.ctx(SimTime::ZERO, NodeId(0), Vec2::ZERO, GroupRole::Source);
            agent.start(&mut ctx);
        }
        let mut delays = Vec::new();
        let mut sizes = Vec::new();
        for round in 0..8u64 {
            let mut ctx = h.ctx(
                SimTime::from_secs(2 * (round + 1)),
                NodeId(0),
                Vec2::ZERO,
                GroupRole::Source,
            );
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
            delays.push(timer_delay(&h.actions).as_secs_f64());
            sizes.push(beacon_size(&h.actions));
        }
        assert!(delays[0] <= 2.1, "round one stays at the base cadence");
        // 3 quiet rounds, factor 2, cap 8×: levels reach 8 × 2 s = 16 s and hold.
        let last = *delays.last().unwrap();
        assert!(
            (15.2..=16.8).contains(&last),
            "suppressed cadence {last} should sit at the 8x cap"
        );
        assert!(delays.windows(2).all(|w| w[1] >= w[0] - 1.7), "cadence backs off, never snaps");
        // Suppression-enabled beacons pay for the advertised next-beacon bound.
        assert!(sizes.iter().all(|&s| s == 24 + Beacon::BOUND_FIELD_BYTES));
    }

    #[test]
    fn evidence_snaps_a_suppressed_node_back_to_base_cadence() {
        let mut config = SsSpstConfig::paper_default(MetricKind::Hop);
        config.silence = SilenceConfig::on();
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(config);
        {
            let mut ctx = h.ctx(SimTime::ZERO, NodeId(0), Vec2::ZERO, GroupRole::Source);
            agent.start(&mut ctx);
        }
        for round in 0..6u64 {
            let mut ctx = h.ctx(
                SimTime::from_secs(2 * (round + 1)),
                NodeId(0),
                Vec2::ZERO,
                GroupRole::Source,
            );
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert!(timer_delay(&h.actions).as_secs_f64() > 10.0, "node is deeply suppressed");
        // An unheard-of neighbour shows up: cancel the backed-off timer and resume
        // the base cadence immediately.
        let pkt = Packet::control(
            NodeId(7),
            32,
            SsSpstPayload::Beacon(beacon_from(5.0, 1, Vec2::new(50.0, 0.0), false, false)),
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(20), NodeId(0), Vec2::ZERO, GroupRole::Source);
            agent.on_packet(&mut ctx, &pkt);
        }
        assert!(
            h.actions.iter().any(|a| matches!(a, Action::CancelTimer { kind: TIMER_BEACON, .. })),
            "the suppressed timer must be cancelled"
        );
        let delay = timer_delay(&h.actions).as_secs_f64();
        assert!(delay <= 2.1, "snap-back reschedules at the base cadence, got {delay}");
    }

    fn mst_agent() -> SsSpstAgent {
        SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::Bottleneck))
    }

    fn beacon_with_parent(cost: f64, hop: u32, pos: Vec2, parent: Option<NodeId>) -> Beacon {
        Beacon { parent, ..beacon_from(cost, hop, pos, true, true) }
    }

    #[test]
    fn bottleneck_picks_the_minimax_parent_not_the_shortest_path() {
        // Me at (100, 0). The source is 100 m away; node 1 sits at (60, 0) with a 60 m
        // bottleneck path to the source. The minimax objective prefers the two-hop
        // path whose longest link is only 60 m.
        let mut h = Harness::with_seed(9);
        let mut agent = mst_agent();
        let me = NodeId(2);
        let my_pos = Vec2::new(100.0, 0.0);
        {
            let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
            agent.start(&mut ctx);
        }
        let direct = beacon_with_parent(0.0, 0, Vec2::ZERO, None);
        let relay = beacon_with_parent(60.0, 1, Vec2::new(60.0, 0.0), Some(NodeId(0)));
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
            agent.on_packet(
                &mut ctx,
                &Packet::control(NodeId(0), 32, SsSpstPayload::Beacon(direct)),
            );
            agent
                .on_packet(&mut ctx, &Packet::control(NodeId(1), 32, SsSpstPayload::Beacon(relay)));
        }
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(agent.parent(), Some(NodeId(1)), "minimax prefers the 60 m bottleneck");
        assert!((agent.cost() - 60.0).abs() < 1e-9);
        assert_eq!(agent.hop(), 2);
    }

    #[test]
    fn bottleneck_never_adopts_a_neighbor_that_claims_us_as_parent() {
        // Node 5 advertises a tempting bottleneck but lists us as its parent: adopting
        // it would close a two-cycle. Only the minimax metric needs the guard.
        let cyclic = beacon_with_parent(1.0, 1, Vec2::new(110.0, 0.0), Some(NodeId(2)));
        let parent_after = |mut agent: SsSpstAgent| {
            let mut h = Harness::with_seed(9);
            let (me, my_pos) = (NodeId(2), Vec2::new(100.0, 0.0));
            {
                let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
                agent.start(&mut ctx);
            }
            {
                let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
                let pkt = Packet::control(NodeId(5), 32, SsSpstPayload::Beacon(cyclic.clone()));
                agent.on_packet(&mut ctx, &pkt);
            }
            let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
            agent.parent()
        };
        assert_eq!(parent_after(mst_agent()), None, "the only candidate is our own child");
        let hop = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::Hop));
        assert_eq!(parent_after(hop), Some(NodeId(5)), "additive metrics count loops out");
    }

    #[test]
    fn bottleneck_forwards_with_power_control() {
        let mut h = Harness::with_seed(9);
        let mut agent = mst_agent();
        let me = NodeId(1);
        let my_pos = Vec2::new(80.0, 0.0);
        {
            let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
            agent.start(&mut ctx);
        }
        let src = beacon_with_parent(0.0, 0, Vec2::ZERO, None);
        let child = beacon_with_parent(90.0, 2, Vec2::new(170.0, 0.0), Some(me));
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
            agent.on_packet(&mut ctx, &Packet::control(NodeId(0), 32, SsSpstPayload::Beacon(src)));
            agent
                .on_packet(&mut ctx, &Packet::control(NodeId(3), 32, SsSpstPayload::Beacon(child)));
        }
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(agent.parent(), Some(NodeId(0)));
        let tag = DataTag {
            group: Default::default(),
            origin: NodeId(0),
            seq: 1,
            created_at: SimTime::from_secs(3),
        };
        {
            let mut ctx = h.ctx(SimTime::from_secs(3), me, my_pos, GroupRole::Member);
            let data = Packet::data(NodeId(0), 512, tag, SsSpstPayload::Data);
            assert_eq!(agent.on_packet(&mut ctx, &data), Disposition::Consumed);
        }
        assert!(h.actions.iter().any(|a| matches!(a, Action::DeliverData { .. })));
        let range = h
            .actions
            .iter()
            .find_map(|a| match a {
                Action::Broadcast { class: PacketClass::Data, range_m, .. } => Some(*range_m),
                _ => None,
            })
            .expect("data forwarded toward the child");
        assert!((range - 90.0 * 1.10).abs() < 1e-9, "reach the 90 m child plus margin: {range}");
    }

    #[test]
    fn advertised_beacon_bound_prevents_false_expiry_of_silent_neighbors() {
        let mut config = SsSpstConfig::paper_default(MetricKind::Hop);
        config.silence = SilenceConfig::on();
        let mut h = Harness::new();
        let mut agent = SsSpstAgent::new(config);
        let me = NodeId(2);
        let my_pos = Vec2::new(100.0, 0.0);
        {
            let mut ctx = h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member);
            agent.start(&mut ctx);
        }
        // The source is deeply suppressed and advertises a 16 s next-beacon bound.
        let mut b = beacon_from(0.0, 0, Vec2::ZERO, true, true);
        b.next_beacon_s = 16.0;
        let pkt = Packet::control(NodeId(0), 32, SsSpstPayload::Beacon(b));
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
            agent.on_packet(&mut ctx, &pkt);
        }
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(agent.parent(), Some(NodeId(0)));
        // 9 s of silence: past the fixed 5 s timeout, well inside 2.5 × 16 s.
        {
            let mut ctx = h.ctx(SimTime::from_secs(10), me, my_pos, GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(
            agent.parent(),
            Some(NodeId(0)),
            "a correctly silent neighbour must not be expired"
        );
    }

    /// A source beacon plus beacons from four children of `me`, ids out of order.
    fn source_and_children(me: NodeId) -> Vec<Packet<SsSpstPayload>> {
        let source = beacon_from(0.0, 0, Vec2::ZERO, true, true);
        let mut packets = vec![Packet::control(NodeId(0), 32, SsSpstPayload::Beacon(source))];
        for (id, x) in [(9, 190.0), (4, 140.0), (7, 170.0), (2, 120.0)] {
            let mut b = beacon_from(10.0, 2, Vec2::new(x, 0.0), true, true);
            b.parent = Some(me);
            packets.push(Packet::control(NodeId(id), 32, SsSpstPayload::Beacon(b)));
        }
        packets
    }

    /// Start an agent at node 5 and let it hear `packets` in the given order.
    fn agent_that_heard(h: &mut Harness, packets: &[Packet<SsSpstPayload>]) -> SsSpstAgent {
        let (me, my_pos) = (NodeId(5), Vec2::new(100.0, 0.0));
        let mut agent = SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::EnergyAware));
        agent.start(&mut h.ctx(SimTime::ZERO, me, my_pos, GroupRole::Member));
        let mut ctx = h.ctx(SimTime::from_secs(1), me, my_pos, GroupRole::Member);
        for pkt in packets {
            agent.on_packet(&mut ctx, pkt);
        }
        agent
    }

    #[test]
    fn beacon_children_are_ascending_by_id() {
        let mut h = Harness::new();
        let mut agent = agent_that_heard(&mut h, &source_and_children(NodeId(5)));
        let mut ctx =
            h.ctx(SimTime::from_secs(2), NodeId(5), Vec2::new(100.0, 0.0), GroupRole::Member);
        agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        let beacon = h
            .actions
            .iter()
            .find_map(|a| match a {
                Action::Broadcast { payload: SsSpstPayload::Beacon(b), .. } => Some(b),
                _ => None,
            })
            .expect("beacon emitted");
        let ids: Vec<NodeId> = beacon.children.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [2, 4, 7, 9].map(NodeId));
    }

    #[test]
    fn corruption_is_reproducible_whatever_order_beacons_arrived_in() {
        let packets = source_and_children(NodeId(5));
        let reversed: Vec<_> = packets.iter().rev().cloned().collect();
        let (mut ha, mut hb) = (Harness::new(), Harness::new());
        let mut a = agent_that_heard(&mut ha, &packets);
        let mut b = agent_that_heard(&mut hb, &reversed);
        a.corrupt_state(&mut StdRng::seed_from_u64(11));
        b.corrupt_state(&mut StdRng::seed_from_u64(11));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // The next round stabilizes both from the same scrambled state identically.
        for (agent, h) in [(&mut a, &mut ha), (&mut b, &mut hb)] {
            let mut ctx =
                h.ctx(SimTime::from_secs(2), NodeId(5), Vec2::new(100.0, 0.0), GroupRole::Member);
            agent.on_timer(&mut ctx, TIMER_BEACON, 0);
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{:?}", ha.actions), format!("{:?}", hb.actions));
    }
}
