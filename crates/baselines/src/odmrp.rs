//! On-Demand Multicast Routing Protocol (ODMRP), Gerla/Lee/Chiang 1999.
//!
//! ODMRP is a mesh-based, on-demand protocol. While a source has data to send it
//! periodically floods a *Join Query*; receivers answer with *Join Replies* that travel
//! hop-by-hop back along the reverse path, marking every node on the way as part of the
//! *forwarding group*. Data packets are then re-broadcast by all forwarding-group members,
//! giving redundant paths (high delivery ratio, Figure 12/14) at the price of the highest
//! control and energy overheads of the protocols compared (Figures 13 and 16).
//!
//! ODMRP's mesh is naturally multi-group — each group builds its own forwarding group
//! from its own Join Query floods. The multi-session runtime realises exactly that by
//! instantiating one `OdmrpAgent` per (session, node); each session's mesh soft state
//! (reverse paths, forwarding-group lifetimes, dedup sets) is fully independent, while
//! all sessions contend on the one shared radio medium.

use ssmcast_dessim::{SimDuration, SimTime};
use ssmcast_manet::{DataTag, Disposition, NodeCtx, NodeId, Packet, ProtocolAgent};
use std::collections::HashSet;

/// Timer class for the periodic Join-Query refresh at the source.
const TIMER_REFRESH: u64 = 1;

/// ODMRP wire payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum OdmrpPayload {
    /// Flooded by the source while it has data to send.
    JoinQuery {
        /// The multicast source that originated the query.
        origin: NodeId,
        /// Query sequence number (for duplicate suppression).
        seq: u64,
        /// Hops travelled so far.
        hop: u32,
    },
    /// Sent by group members back towards the source; every node that recognises itself
    /// as `next_hop` joins the forwarding group and propagates the reply upstream.
    JoinReply {
        /// The source the reply is heading to.
        source: NodeId,
        /// The neighbour that should process this reply (reverse-path next hop).
        next_hop: NodeId,
    },
    /// Multicast data.
    Data,
}

/// Join-Query refresh interval while traffic is flowing (the original paper defaults to
/// a sub-second refresh; we use 1 s).
const REFRESH_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Forwarding-group soft-state lifetime (multiples of the refresh interval).
const FG_TIMEOUT_INTERVALS: f64 = 3.0;
/// Join-Query size on the wire, bytes.
const JOIN_QUERY_BYTES: u32 = 28;
/// Join-Reply size on the wire, bytes.
const JOIN_REPLY_BYTES: u32 = 28;
/// How many data packets the source buffers while it has no forwarding mesh yet.
const MAX_BUFFERED: usize = 64;

/// The per-node ODMRP state machine.
#[derive(Debug)]
pub struct OdmrpAgent {
    /// Join-Query sequence numbers already processed (duplicate suppression for the flood).
    jq_seen: HashSet<u64>,
    /// Reverse-path next hop towards the source, learned from the freshest Join Query.
    upstream: Option<NodeId>,
    upstream_seq: u64,
    /// This node is in the forwarding group until this time.
    forwarding_until: SimTime,
    /// Data packets already handled (duplicate suppression for the mesh).
    seen_data: HashSet<u64>,
    /// Source-only: next Join-Query sequence number.
    jq_seq: u64,
    /// Source-only: when the application last produced data.
    last_app_data: Option<SimTime>,
    /// Source-only: whether the refresh timer is armed.
    refresh_armed: bool,
    /// Source-only: whether at least one Join Reply has come back (mesh exists).
    mesh_established: bool,
    /// Source-only: data buffered while the mesh is being built.
    buffered: Vec<(DataTag, u32)>,
}

impl OdmrpAgent {
    /// Create an agent with the protocol's fixed parameters.
    pub fn with_defaults() -> Self {
        OdmrpAgent {
            jq_seen: HashSet::new(),
            upstream: None,
            upstream_seq: 0,
            forwarding_until: SimTime::ZERO,
            seen_data: HashSet::new(),
            jq_seq: 0,
            last_app_data: None,
            refresh_armed: false,
            mesh_established: false,
            buffered: Vec::new(),
        }
    }

    /// True if this node is currently part of the forwarding group.
    pub fn is_forwarder(&self, now: SimTime) -> bool {
        now < self.forwarding_until
    }

    /// The reverse-path next hop towards the source, if known.
    pub fn upstream(&self) -> Option<NodeId> {
        self.upstream
    }

    fn fg_timeout() -> SimDuration {
        REFRESH_INTERVAL.mul_f64(FG_TIMEOUT_INTERVALS)
    }

    fn send_join_query(&mut self, ctx: &mut NodeCtx<'_, OdmrpPayload>) {
        let seq = self.jq_seq;
        self.jq_seq += 1;
        self.jq_seen.insert(seq);
        ctx.broadcast_control(
            JOIN_QUERY_BYTES,
            ctx.radio.max_range_m,
            OdmrpPayload::JoinQuery { origin: ctx.id, seq, hop: 0 },
        );
    }

    fn flush_buffer(&mut self, ctx: &mut NodeCtx<'_, OdmrpPayload>) {
        for (tag, size) in std::mem::take(&mut self.buffered) {
            ctx.broadcast_data(size, ctx.radio.max_range_m, tag, OdmrpPayload::Data);
        }
    }
}

impl ProtocolAgent for OdmrpAgent {
    type Payload = OdmrpPayload;

    fn start(&mut self, _ctx: &mut NodeCtx<'_, OdmrpPayload>) {
        // On-demand: nothing happens until the application produces data.
    }

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, OdmrpPayload>,
        packet: &Packet<OdmrpPayload>,
    ) -> Disposition {
        match &packet.payload {
            OdmrpPayload::JoinQuery { origin, seq, hop } => {
                if !self.jq_seen.insert(*seq) {
                    return Disposition::Discarded;
                }
                // Backward learning: the sender is our next hop towards the source.
                self.upstream = Some(packet.sender);
                self.upstream_seq = *seq;
                // Members answer with a Join Reply that travels back along the reverse path.
                if ctx.is_member() && !ctx.is_source() {
                    ctx.broadcast_control(
                        JOIN_REPLY_BYTES,
                        ctx.radio.max_range_m,
                        OdmrpPayload::JoinReply { source: *origin, next_hop: packet.sender },
                    );
                }
                // Continue the flood.
                ctx.broadcast_control(
                    JOIN_QUERY_BYTES,
                    ctx.radio.max_range_m,
                    OdmrpPayload::JoinQuery { origin: *origin, seq: *seq, hop: hop + 1 },
                );
                Disposition::Consumed
            }
            OdmrpPayload::JoinReply { source, next_hop } => {
                if *next_hop != ctx.id {
                    // Reply addressed to somebody else: overheard and dropped.
                    return Disposition::Discarded;
                }
                self.forwarding_until = ctx.now + Self::fg_timeout();
                if ctx.is_source() {
                    self.mesh_established = true;
                    self.flush_buffer(ctx);
                } else if let Some(up) = self.upstream {
                    ctx.broadcast_control(
                        JOIN_REPLY_BYTES,
                        ctx.radio.max_range_m,
                        OdmrpPayload::JoinReply { source: *source, next_hop: up },
                    );
                }
                Disposition::Consumed
            }
            OdmrpPayload::Data => {
                let Some(tag) = packet.data else { return Disposition::Discarded };
                if !self.seen_data.insert(tag.seq) {
                    return Disposition::Discarded;
                }
                let member = ctx.is_member() && !ctx.is_source();
                if member {
                    ctx.deliver_data(tag);
                }
                let forwarder = self.is_forwarder(ctx.now);
                if forwarder {
                    ctx.broadcast_data(
                        packet.size_bytes,
                        ctx.radio.max_range_m,
                        tag,
                        OdmrpPayload::Data,
                    );
                }
                if member || forwarder {
                    Disposition::Consumed
                } else {
                    Disposition::Discarded
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, OdmrpPayload>, kind: u64, _key: u64) {
        if kind != TIMER_REFRESH {
            return;
        }
        self.refresh_armed = false;
        let active = self
            .last_app_data
            .map(|t| ctx.now.saturating_since(t) <= Self::fg_timeout())
            .unwrap_or(false);
        if active {
            self.send_join_query(ctx);
            ctx.set_timer(REFRESH_INTERVAL, TIMER_REFRESH, 0);
            self.refresh_armed = true;
        }
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, OdmrpPayload>, tag: DataTag, size: u32) {
        let first = self.last_app_data.is_none();
        self.last_app_data = Some(ctx.now);
        self.seen_data.insert(tag.seq);
        if first || !self.refresh_armed {
            self.send_join_query(ctx);
            ctx.set_timer(REFRESH_INTERVAL, TIMER_REFRESH, 0);
            self.refresh_armed = true;
        }
        if self.mesh_established {
            ctx.broadcast_data(size, ctx.radio.max_range_m, tag, OdmrpPayload::Data);
        } else if self.buffered.len() < MAX_BUFFERED {
            // Route-acquisition latency: data waits until the first Join Reply arrives.
            self.buffered.push((tag, size));
        }
    }

    fn label(&self) -> &'static str {
        "ODMRP"
    }

    fn tree_parent(&self) -> Option<NodeId> {
        // The reverse-path next hop learned from the freshest Join Query — the closest
        // thing ODMRP's mesh has to a tree edge towards the source.
        self.upstream
    }

    /// Transient-fault injection: scramble the reverse path and forwarding-group soft
    /// state. The sub-second Join-Query refresh repairs this quickly — ODMRP pays for
    /// its robustness in control overhead, not recovery time.
    fn corrupt_state(&mut self, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        if rng.gen::<bool>() {
            self.upstream = ssmcast_manet::scrambled_parent(rng);
            self.forwarding_until = if rng.gen::<bool>() { SimTime::MAX } else { SimTime::ZERO };
        } else {
            self.upstream = None;
            self.forwarding_until = SimTime::ZERO;
            self.mesh_established = false;
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
        actions: Vec<Action<OdmrpPayload>>,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                radio: RadioConfig::default(),
                rng: StdRng::seed_from_u64(3),
                actions: Vec::new(),
            }
        }
        fn ctx(&mut self, now: SimTime, id: NodeId, role: GroupRole) -> NodeCtx<'_, OdmrpPayload> {
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
    fn source_floods_join_query_and_buffers_until_reply() {
        let mut h = Harness::new();
        let mut a = OdmrpAgent::with_defaults();
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(0), GroupRole::Source);
            a.on_app_data(&mut ctx, tag(1), 512);
        }
        // A Join Query goes out, but the data is buffered (no mesh yet).
        assert!(h.actions.iter().any(|x| matches!(
            x,
            Action::Broadcast { payload: OdmrpPayload::JoinQuery { .. }, .. }
        )));
        assert!(!h
            .actions
            .iter()
            .any(|x| matches!(x, Action::Broadcast { class: PacketClass::Data, .. })));
        assert_eq!(a.buffered.len(), 1);

        // A Join Reply addressed to the source establishes the mesh and flushes the buffer.
        let jr = Packet::control(
            NodeId(4),
            28,
            OdmrpPayload::JoinReply { source: NodeId(0), next_hop: NodeId(0) },
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), NodeId(0), GroupRole::Source);
            assert_eq!(a.on_packet(&mut ctx, &jr), Disposition::Consumed);
        }
        assert!(a.mesh_established);
        assert!(h
            .actions
            .iter()
            .any(|x| matches!(x, Action::Broadcast { class: PacketClass::Data, .. })));
        // Subsequent data goes straight out.
        {
            let mut ctx = h.ctx(SimTime::from_secs(3), NodeId(0), GroupRole::Source);
            a.on_app_data(&mut ctx, tag(2), 512);
        }
        assert!(h
            .actions
            .iter()
            .any(|x| matches!(x, Action::Broadcast { class: PacketClass::Data, .. })));
    }

    #[test]
    fn member_replies_to_join_query_and_relays_the_flood() {
        let mut h = Harness::new();
        let mut a = OdmrpAgent::with_defaults();
        let jq = Packet::control(
            NodeId(7),
            28,
            OdmrpPayload::JoinQuery { origin: NodeId(0), seq: 5, hop: 2 },
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(3), GroupRole::Member);
            assert_eq!(a.on_packet(&mut ctx, &jq), Disposition::Consumed);
        }
        assert_eq!(a.upstream(), Some(NodeId(7)));
        let replies: Vec<_> = h
            .actions
            .iter()
            .filter(|x| {
                matches!(x, Action::Broadcast { payload: OdmrpPayload::JoinReply { .. }, .. })
            })
            .collect();
        assert_eq!(replies.len(), 1, "members answer with one Join Reply");
        assert!(h.actions.iter().any(|x| matches!(
            x,
            Action::Broadcast { payload: OdmrpPayload::JoinQuery { hop: 3, .. }, .. }
        )));
        // Duplicate query is pure overhead.
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(3), GroupRole::Member);
            assert_eq!(a.on_packet(&mut ctx, &jq), Disposition::Discarded);
        }
    }

    #[test]
    fn join_reply_recruits_forwarders_along_the_reverse_path() {
        let mut h = Harness::new();
        let mut a = OdmrpAgent::with_defaults();
        // Learn an upstream first.
        let jq = Packet::control(
            NodeId(1),
            28,
            OdmrpPayload::JoinQuery { origin: NodeId(0), seq: 1, hop: 1 },
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(2), GroupRole::NonMember);
            a.on_packet(&mut ctx, &jq);
        }
        // A reply addressed to us makes us a forwarder and is propagated to our upstream.
        let jr = Packet::control(
            NodeId(9),
            28,
            OdmrpPayload::JoinReply { source: NodeId(0), next_hop: NodeId(2) },
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(2), GroupRole::NonMember);
            assert_eq!(a.on_packet(&mut ctx, &jr), Disposition::Consumed);
        }
        assert!(a.is_forwarder(SimTime::from_secs(2)));
        assert!(h.actions.iter().any(|x| matches!(
            x,
            Action::Broadcast { payload: OdmrpPayload::JoinReply { next_hop: NodeId(1), .. }, .. }
        )));
        // A reply addressed to someone else is overheard.
        let other = Packet::control(
            NodeId(9),
            28,
            OdmrpPayload::JoinReply { source: NodeId(0), next_hop: NodeId(6) },
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(2), GroupRole::NonMember);
            assert_eq!(a.on_packet(&mut ctx, &other), Disposition::Discarded);
        }
        // Forwarding-group membership expires.
        assert!(!a.is_forwarder(SimTime::from_secs(60)));
    }

    #[test]
    fn forwarders_rebroadcast_data_and_members_deliver_it_once() {
        let mut h = Harness::new();
        let mut a = OdmrpAgent::with_defaults();
        // Become a forwarder.
        let jq = Packet::control(
            NodeId(1),
            28,
            OdmrpPayload::JoinQuery { origin: NodeId(0), seq: 1, hop: 1 },
        );
        let jr = Packet::control(
            NodeId(9),
            28,
            OdmrpPayload::JoinReply { source: NodeId(0), next_hop: NodeId(2) },
        );
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(2), GroupRole::Member);
            a.on_packet(&mut ctx, &jq);
            a.on_packet(&mut ctx, &jr);
        }
        let data = Packet::data(NodeId(1), 512, tag(7), OdmrpPayload::Data);
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), NodeId(2), GroupRole::Member);
            assert_eq!(a.on_packet(&mut ctx, &data), Disposition::Consumed);
        }
        assert!(h.actions.iter().any(|x| matches!(x, Action::DeliverData { .. })));
        assert!(h
            .actions
            .iter()
            .any(|x| matches!(x, Action::Broadcast { class: PacketClass::Data, .. })));
        // The duplicate arriving over another mesh path is suppressed.
        {
            let mut ctx = h.ctx(SimTime::from_secs(2), NodeId(2), GroupRole::Member);
            assert_eq!(a.on_packet(&mut ctx, &data), Disposition::Discarded);
        }
    }

    #[test]
    fn refresh_timer_stops_when_traffic_stops() {
        let mut h = Harness::new();
        let mut a = OdmrpAgent::with_defaults();
        {
            let mut ctx = h.ctx(SimTime::from_secs(1), NodeId(0), GroupRole::Source);
            a.on_app_data(&mut ctx, tag(1), 512);
        }
        // Long after the last data packet, the refresh timer fires and goes quiet.
        {
            let mut ctx = h.ctx(SimTime::from_secs(100), NodeId(0), GroupRole::Source);
            a.on_timer(&mut ctx, TIMER_REFRESH, 0);
        }
        assert!(
            !h.actions.iter().any(|x| matches!(x, Action::Broadcast { .. })),
            "no queries without traffic (on-demand behaviour)"
        );
    }
}
