//! Blind flooding: the simplest possible multicast "protocol".
//!
//! Every node re-broadcasts every data packet exactly once at maximum power. There is no
//! control traffic at all. Flooding is not evaluated in the paper but serves as a useful
//! reference point in tests and ablations: it upper-bounds the delivery ratio any protocol
//! can achieve on a given scenario and lower-bounds nothing — its energy cost is enormous.
//!
//! Multi-group runs instantiate one `FloodingAgent` per (session, node): the dedup set
//! is per session, so concurrent sessions flood independently even though their sources
//! reuse overlapping sequence numbers.

use ssmcast_manet::{DataTag, Disposition, NodeCtx, Packet, ProtocolAgent, SeqSet};

/// The flooding payload: only data, no control messages.
#[derive(Clone, Debug, PartialEq)]
pub struct FloodPayload;

/// Per-node flooding state: which packets we have already relayed.
#[derive(Debug, Default)]
pub struct FloodingAgent {
    seen: SeqSet,
}

impl FloodingAgent {
    /// Create a flooding agent.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProtocolAgent for FloodingAgent {
    type Payload = FloodPayload;

    fn start(&mut self, _ctx: &mut NodeCtx<'_, FloodPayload>) {}

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, FloodPayload>,
        packet: &Packet<FloodPayload>,
    ) -> Disposition {
        let Some(tag) = packet.data else { return Disposition::Discarded };
        if !self.seen.insert(tag.seq) {
            return Disposition::Discarded;
        }
        if ctx.is_member() && !ctx.is_source() {
            ctx.deliver_data(tag);
        }
        ctx.broadcast_data(packet.size_bytes, ctx.radio.max_range_m, tag, FloodPayload);
        Disposition::Consumed
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, FloodPayload>, _kind: u64, _key: u64) {}

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, FloodPayload>, tag: DataTag, size: u32) {
        self.seen.insert(tag.seq);
        ctx.broadcast_data(size, ctx.radio.max_range_m, tag, FloodPayload);
    }

    fn label(&self) -> &'static str {
        "Flooding"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssmcast_dessim::SimTime;
    use ssmcast_manet::{Action, GroupId, GroupRole, NodeId, PacketClass, RadioConfig, Vec2};

    fn tag(seq: u64) -> DataTag {
        DataTag { group: GroupId(0), origin: NodeId(0), seq, created_at: SimTime::ZERO }
    }

    #[test]
    fn each_packet_is_relayed_exactly_once() {
        let radio = RadioConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut actions: Vec<Action<FloodPayload>> = Vec::new();
        let mut agent = FloodingAgent::new();
        let pkt = Packet::data(NodeId(3), 512, tag(1), FloodPayload);
        {
            let mut ctx = NodeCtx::new(
                SimTime::ZERO,
                NodeId(5),
                Vec2::ZERO,
                GroupRole::Member,
                10,
                &radio,
                &mut rng,
                &mut actions,
            );
            assert_eq!(agent.on_packet(&mut ctx, &pkt), Disposition::Consumed);
        }
        assert!(actions.iter().any(|a| matches!(a, Action::DeliverData { .. })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast { class: PacketClass::Data, .. })));
        actions.clear();
        {
            let mut ctx = NodeCtx::new(
                SimTime::ZERO,
                NodeId(5),
                Vec2::ZERO,
                GroupRole::Member,
                10,
                &radio,
                &mut rng,
                &mut actions,
            );
            assert_eq!(agent.on_packet(&mut ctx, &pkt), Disposition::Discarded);
        }
        assert!(actions.is_empty(), "duplicates trigger nothing");
    }
}
