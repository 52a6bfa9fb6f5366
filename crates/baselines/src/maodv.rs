//! Multicast Ad hoc On-Demand Distance Vector routing (MAODV), Royer & Perkins 1999.
//!
//! MAODV maintains one shared multicast tree per group, rooted at a group leader (here:
//! the multicast source). This implementation preserves the behavioural signature the
//! paper compares against — tree-based forwarding, on-demand control traffic, the lowest
//! control overhead of the four protocols but also the lowest delivery ratio, and slow
//! repair under mobility — using a compact three-message realisation:
//!
//! * the leader floods a periodic **Group Hello** while it has traffic; the flood's
//!   reverse paths give every node a fresh next hop towards the leader (route discovery),
//! * members answer each Group Hello with a hop-by-hop **Join** that activates the nodes
//!   on the reverse path as tree routers (the role MACT plays in full MAODV),
//! * **Data** flows down the tree: a tree router accepts data only from its upstream next
//!   hop and re-broadcasts it; everybody else overhears.
//!
//! "One shared tree per group" extends to multi-group runs unchanged: the runtime
//! instantiates one `MaodvAgent` per (session, node), so each session keeps its own
//! leader-rooted tree, hello sequence space and activation soft state over the shared
//! medium.

use ssmcast_dessim::{SimDuration, SimTime};
use ssmcast_manet::{DataTag, Disposition, NodeCtx, NodeId, Packet, ProtocolAgent, SeqSet};

/// Timer class for the periodic Group Hello at the leader.
const TIMER_HELLO: u64 = 1;

/// MAODV wire payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum MaodvPayload {
    /// Flooded from the group leader; establishes/refreshes routes towards the tree root.
    GroupHello {
        /// Hello sequence number.
        seq: u64,
        /// Hops travelled so far.
        hop: u32,
    },
    /// Hop-by-hop tree activation travelling towards the leader (plays the role of
    /// RREP/MACT in full MAODV).
    Join {
        /// The neighbour that should process this activation next.
        target: NodeId,
    },
    /// Multicast data.
    Data,
}

/// Group Hello interval (the MAODV draft uses 5 s).
const HELLO_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Tree-router soft state lifetime, in hello intervals.
const TREE_TIMEOUT_INTERVALS: f64 = 2.5;
/// Group Hello size, bytes.
const HELLO_BYTES: u32 = 24;
/// Join size, bytes.
const JOIN_BYTES: u32 = 24;
/// Data packets buffered at the source while the tree is being built.
const MAX_BUFFERED: usize = 64;

/// The per-node MAODV state machine.
#[derive(Debug)]
pub struct MaodvAgent {
    hello_seen: SeqSet,
    /// Next hop towards the group leader and the hello sequence that taught it to us.
    upstream: Option<NodeId>,
    upstream_expires: SimTime,
    /// This node is an activated tree router until this time.
    on_tree_until: SimTime,
    seen_data: SeqSet,
    /// Leader-only state.
    hello_seq: u64,
    last_app_data: Option<SimTime>,
    hello_armed: bool,
    tree_established: bool,
    buffered: Vec<(DataTag, u32)>,
}

impl MaodvAgent {
    /// Create an agent with the protocol's fixed parameters.
    pub fn with_defaults() -> Self {
        MaodvAgent {
            hello_seen: SeqSet::new(),
            upstream: None,
            upstream_expires: SimTime::ZERO,
            on_tree_until: SimTime::ZERO,
            seen_data: SeqSet::new(),
            hello_seq: 0,
            last_app_data: None,
            hello_armed: false,
            tree_established: false,
            buffered: Vec::new(),
        }
    }

    /// True if this node is an activated tree router at `now`.
    pub fn is_tree_router(&self, now: SimTime) -> bool {
        now < self.on_tree_until
    }

    /// The current next hop towards the group leader, if fresh.
    pub fn upstream(&self, now: SimTime) -> Option<NodeId> {
        if now < self.upstream_expires {
            self.upstream
        } else {
            None
        }
    }

    fn tree_timeout() -> SimDuration {
        HELLO_INTERVAL.mul_f64(TREE_TIMEOUT_INTERVALS)
    }

    fn send_hello(&mut self, ctx: &mut NodeCtx<'_, MaodvPayload>) {
        let seq = self.hello_seq;
        self.hello_seq += 1;
        self.hello_seen.insert(seq);
        ctx.broadcast_control(
            HELLO_BYTES,
            ctx.radio.max_range_m,
            MaodvPayload::GroupHello { seq, hop: 0 },
        );
    }

    fn flush_buffer(&mut self, ctx: &mut NodeCtx<'_, MaodvPayload>) {
        for (tag, size) in std::mem::take(&mut self.buffered) {
            ctx.broadcast_data(size, ctx.radio.max_range_m, tag, MaodvPayload::Data);
        }
    }
}

impl ProtocolAgent for MaodvAgent {
    type Payload = MaodvPayload;

    fn start(&mut self, _ctx: &mut NodeCtx<'_, MaodvPayload>) {
        // On-demand: the leader starts advertising only once it has data to send.
    }

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, MaodvPayload>,
        packet: &Packet<MaodvPayload>,
    ) -> Disposition {
        match &packet.payload {
            MaodvPayload::GroupHello { seq, hop } => {
                if !self.hello_seen.insert(*seq) {
                    return Disposition::Discarded;
                }
                // First copy of a hello arrives over the shortest path: its sender becomes
                // our next hop towards the leader.
                self.upstream = Some(packet.sender);
                self.upstream_expires = ctx.now + Self::tree_timeout();
                // Members (re-)join the tree every hello period.
                if ctx.is_member() && !ctx.is_source() {
                    ctx.broadcast_control(
                        JOIN_BYTES,
                        ctx.radio.max_range_m,
                        MaodvPayload::Join { target: packet.sender },
                    );
                    self.on_tree_until = ctx.now + Self::tree_timeout();
                }
                // Relay the flood.
                ctx.broadcast_control(
                    HELLO_BYTES,
                    ctx.radio.max_range_m,
                    MaodvPayload::GroupHello { seq: *seq, hop: hop + 1 },
                );
                Disposition::Consumed
            }
            MaodvPayload::Join { target } => {
                if *target != ctx.id {
                    return Disposition::Discarded;
                }
                self.on_tree_until = ctx.now + Self::tree_timeout();
                if ctx.is_source() {
                    self.tree_established = true;
                    self.flush_buffer(ctx);
                } else if let Some(up) = self.upstream(ctx.now) {
                    ctx.broadcast_control(
                        JOIN_BYTES,
                        ctx.radio.max_range_m,
                        MaodvPayload::Join { target: up },
                    );
                }
                Disposition::Consumed
            }
            MaodvPayload::Data => {
                let Some(tag) = packet.data else { return Disposition::Discarded };
                // Tree discipline: only data arriving from our upstream is ours to handle.
                if self.upstream(ctx.now) != Some(packet.sender) && !ctx.is_source() {
                    return Disposition::Discarded;
                }
                if !self.seen_data.insert(tag.seq) {
                    return Disposition::Discarded;
                }
                let member = ctx.is_member() && !ctx.is_source();
                if member {
                    ctx.deliver_data(tag);
                }
                let router = self.is_tree_router(ctx.now);
                if router {
                    ctx.broadcast_data(
                        packet.size_bytes,
                        ctx.radio.max_range_m,
                        tag,
                        MaodvPayload::Data,
                    );
                }
                if member || router {
                    Disposition::Consumed
                } else {
                    Disposition::Discarded
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, MaodvPayload>, kind: u64, _key: u64) {
        if kind != TIMER_HELLO {
            return;
        }
        self.hello_armed = false;
        let active = self
            .last_app_data
            .map(|t| ctx.now.saturating_since(t) <= Self::tree_timeout())
            .unwrap_or(false);
        if active {
            self.send_hello(ctx);
            ctx.set_timer(HELLO_INTERVAL, TIMER_HELLO, 0);
            self.hello_armed = true;
        }
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, MaodvPayload>, tag: DataTag, size: u32) {
        let first = self.last_app_data.is_none();
        self.last_app_data = Some(ctx.now);
        self.seen_data.insert(tag.seq);
        if first || !self.hello_armed {
            self.send_hello(ctx);
            ctx.set_timer(HELLO_INTERVAL, TIMER_HELLO, 0);
            self.hello_armed = true;
        }
        if self.tree_established {
            ctx.broadcast_data(size, ctx.radio.max_range_m, tag, MaodvPayload::Data);
        } else if self.buffered.len() < MAX_BUFFERED {
            self.buffered.push((tag, size));
        }
    }

    fn label(&self) -> &'static str {
        "MAODV"
    }

    fn tree_parent(&self) -> Option<NodeId> {
        // The reverse-path next hop towards the group leader — MAODV's tree edge. No
        // freshness filter here: a stale pointer *should* read as illegitimate until
        // the next Group Hello repairs it.
        self.upstream
    }

    /// Transient-fault injection: either plant a false belief (a bogus upstream held
    /// forever) or wipe the route state entirely. Repair has to wait for the next
    /// Group Hello flood, which is what makes MAODV recover more slowly than a
    /// beacon-every-2-s SS-SPST variant under the same fault schedule.
    fn corrupt_state(&mut self, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        if rng.gen::<bool>() {
            self.upstream = ssmcast_manet::scrambled_parent(rng);
            self.upstream_expires = SimTime::MAX;
            self.on_tree_until = if rng.gen::<bool>() { SimTime::MAX } else { SimTime::ZERO };
        } else {
            self.upstream = None;
            self.upstream_expires = SimTime::ZERO;
            self.on_tree_until = SimTime::ZERO;
            self.tree_established = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssmcast_manet::{Action, GroupId, GroupRole, PacketClass, RadioConfig, Vec2};

    struct Harness {
        radio: RadioConfig,
        rng: StdRng,
        actions: Vec<Action<MaodvPayload>>,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                radio: RadioConfig::default(),
                rng: StdRng::seed_from_u64(3),
                actions: Vec::new(),
            }
        }
        fn ctx(&mut self, now: SimTime, id: NodeId, role: GroupRole) -> NodeCtx<'_, MaodvPayload> {
            self.actions.clear();
            NodeCtx::new(
                now,
                id,
                Vec2::ZERO,
                role,
                50,
                &self.radio,
                &mut self.rng,
                &mut self.actions,
            )
        }
    }

    fn tag(seq: u64) -> DataTag {
        DataTag { group: GroupId(0), origin: NodeId(0), seq, created_at: SimTime::ZERO }
    }

    #[test]
    fn leader_floods_hello_on_first_data_and_buffers_until_join() {
        let mut h = Harness::new();
        let mut a = MaodvAgent::with_defaults();
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(0), GroupRole::Source);
            a.on_app_data(&mut ctx, tag(1), 512);
        }
        assert!(h.actions.iter().any(|x| matches!(
            x,
            Action::Broadcast { payload: MaodvPayload::GroupHello { .. }, .. }
        )));
        assert_eq!(a.buffered.len(), 1, "data waits for the tree");
        // A Join addressed to the leader establishes the tree and releases the buffer.
        let join = Packet::control(NodeId(4), 24, MaodvPayload::Join { target: NodeId(0) });
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), NodeId(0), GroupRole::Source);
            assert_eq!(a.on_packet(&mut ctx, &join), Disposition::Consumed);
        }
        assert!(a.tree_established);
        assert!(h
            .actions
            .iter()
            .any(|x| matches!(x, Action::Broadcast { class: PacketClass::Data, .. })));
    }

    #[test]
    fn members_join_on_hello_and_relays_activate_the_reverse_path() {
        let mut h = Harness::new();
        let mut member = MaodvAgent::with_defaults();
        let hello = Packet::control(NodeId(6), 24, MaodvPayload::GroupHello { seq: 3, hop: 2 });
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(9), GroupRole::Member);
            assert_eq!(member.on_packet(&mut ctx, &hello), Disposition::Consumed);
        }
        assert_eq!(member.upstream(SimTime::from_secs(2)), Some(NodeId(6)));
        assert!(h.actions.iter().any(|x| matches!(
            x,
            Action::Broadcast { payload: MaodvPayload::Join { target: NodeId(6) }, .. }
        )));
        assert!(h.actions.iter().any(|x| matches!(
            x,
            Action::Broadcast { payload: MaodvPayload::GroupHello { hop: 3, .. }, .. }
        )));

        // A relay that learned its upstream forwards the activation one hop further.
        let mut relay = MaodvAgent::with_defaults();
        let hello2 = Packet::control(NodeId(2), 24, MaodvPayload::GroupHello { seq: 3, hop: 1 });
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(6), GroupRole::NonMember);
            relay.on_packet(&mut ctx, &hello2);
        }
        let join = Packet::control(NodeId(9), 24, MaodvPayload::Join { target: NodeId(6) });
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(6), GroupRole::NonMember);
            assert_eq!(relay.on_packet(&mut ctx, &join), Disposition::Consumed);
        }
        assert!(relay.is_tree_router(SimTime::from_secs(2)));
        assert!(h.actions.iter().any(|x| matches!(
            x,
            Action::Broadcast { payload: MaodvPayload::Join { target: NodeId(2) }, .. }
        )));
        // Activation soft state eventually expires (slow repair under mobility).
        assert!(!relay.is_tree_router(SimTime::from_secs(60)));
    }

    #[test]
    fn data_follows_the_tree_and_everything_else_is_overheard() {
        let mut h = Harness::new();
        let mut a = MaodvAgent::with_defaults();
        // Learn upstream (node 1) and become an activated router.
        let hello = Packet::control(NodeId(1), 24, MaodvPayload::GroupHello { seq: 0, hop: 1 });
        let join = Packet::control(NodeId(8), 24, MaodvPayload::Join { target: NodeId(4) });
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(4), GroupRole::Member);
            a.on_packet(&mut ctx, &hello);
            a.on_packet(&mut ctx, &join);
        }
        // Data from the upstream is delivered and forwarded.
        let data = Packet::data(NodeId(1), 512, tag(1), MaodvPayload::Data);
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), NodeId(4), GroupRole::Member);
            assert_eq!(a.on_packet(&mut ctx, &data), Disposition::Consumed);
        }
        assert!(h.actions.iter().any(|x| matches!(x, Action::DeliverData { .. })));
        assert!(h
            .actions
            .iter()
            .any(|x| matches!(x, Action::Broadcast { class: PacketClass::Data, .. })));
        // Data from a non-upstream neighbour is overhearing.
        let stray = Packet::data(NodeId(7), 512, tag(2), MaodvPayload::Data);
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), NodeId(4), GroupRole::Member);
            assert_eq!(a.on_packet(&mut ctx, &stray), Disposition::Discarded);
        }
        // Duplicate hello is suppressed.
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), NodeId(4), GroupRole::Member);
            assert_eq!(a.on_packet(&mut ctx, &hello), Disposition::Discarded);
        }
    }

    #[test]
    fn hello_stops_when_traffic_stops() {
        let mut h = Harness::new();
        let mut a = MaodvAgent::with_defaults();
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(0), GroupRole::Source);
            a.on_app_data(&mut ctx, tag(1), 512);
        }
        {
            let mut ctx = h.ctx(SimTime::from_secs(200), NodeId(0), GroupRole::Source);
            a.on_timer(&mut ctx, TIMER_HELLO, 0);
        }
        assert!(!h.actions.iter().any(|x| matches!(x, Action::Broadcast { .. })));
    }
}
