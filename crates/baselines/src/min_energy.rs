//! Minimum-energy multicast forwarding agents: MEM-Tree and DCA-Forward.
//!
//! Both run a *precomputed* minimum-energy tree (the BIP construction in
//! `ssmcast_core::min_energy`, built by the scenario layer from the t = 0 topology
//! snapshot) rather than stabilizing one in-network. They are the "how cheap could
//! multicast possibly be" baselines the self-stabilizing protocols are measured
//! against: no beacons, no neighbour tables, no repair — just tree forwarding with
//! power control, which also means the tree silently rots as nodes move or die.
//!
//! * [`MinEnergyAgent`] in **MEM-Tree** mode forwards each packet immediately to its
//!   forwarding-set children, priced at the farthest child (broadcast advantage).
//! * In **DCA-Forward** mode the agent also knows the run's [`DutySchedule`] and defers
//!   each child's copy into that child's wake window: children awake at the delivery
//!   instant are served now in one batched transmission priced at the farthest awake
//!   child; sleeping children get a timer that fires exactly one delivery-delay before
//!   their next wake, so the frame lands in the open window instead of being lost.

use ssmcast_manet::{
    DataTag, Disposition, DutySchedule, NodeCtx, NodeId, Packet, ProtocolAgent, SeqSet,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Tree forwarding needs no control traffic: the payload is data-only, like flooding's.
#[derive(Clone, Debug, PartialEq)]
pub struct MinEnergyPayload;

/// Safety margin applied to the farthest-child distance when choosing a transmit
/// range, matching the SS-SPST data plane's allowance for mobility drift.
const RANGE_MARGIN: f64 = 1.10;

/// Timer kind for deferred duty-cycle-aware forwards (key = packet sequence number).
const TIMER_DEFER: u64 = 1;

/// Wake windows each child is served in under DCA-Forward. One copy per window with
/// no acknowledgements means a single collision or channel loss starves the child's
/// whole subtree; a second window squares the per-hop loss probability at a bounded
/// energy premium (≤ 2× the tree's transmissions, still far below flooding).
const DCA_TRIES: u8 = 2;

struct PendingForward {
    tag: DataTag,
    size_bytes: u32,
    /// Indices into `children` still owed a copy, with serve attempts left for each.
    remaining: Vec<(usize, u8)>,
}

/// Per-(session, node) state for MEM-Tree / DCA-Forward: the node's slice of the
/// precomputed minimum-energy tree, plus (in DCA mode) the shared duty schedule.
pub struct MinEnergyAgent {
    parent: Option<NodeId>,
    /// Forwarding-set children with their snapshot distances.
    children: Vec<(NodeId, f64)>,
    /// Duty schedule for DCA-Forward; `None` selects plain MEM-Tree forwarding.
    duty: Option<Arc<DutySchedule>>,
    seen: SeqSet,
    pending: HashMap<u64, PendingForward>,
}

impl MinEnergyAgent {
    /// MEM-Tree: forward immediately, priced at the farthest forwarding child.
    pub fn mem_tree(parent: Option<NodeId>, children: Vec<(NodeId, f64)>) -> Self {
        MinEnergyAgent {
            parent,
            children,
            duty: None,
            seen: SeqSet::new(),
            pending: HashMap::new(),
        }
    }

    /// DCA-Forward: defer each child's copy into its wake window under `duty`.
    pub fn dca_forward(
        parent: Option<NodeId>,
        children: Vec<(NodeId, f64)>,
        duty: Arc<DutySchedule>,
    ) -> Self {
        MinEnergyAgent {
            parent,
            children,
            duty: Some(duty),
            seen: SeqSet::new(),
            pending: HashMap::new(),
        }
    }

    fn tx_range(&self, ctx: &NodeCtx<'_, MinEnergyPayload>, farthest: f64) -> f64 {
        (farthest * RANGE_MARGIN).min(ctx.radio.max_range_m)
    }

    /// One batched transmission to every child awake at the delivery instant; a timer
    /// one delivery-delay before the earliest remaining wake for the rest.
    fn forward(&mut self, ctx: &mut NodeCtx<'_, MinEnergyPayload>, seq: u64) {
        let Some(p) = self.pending.get_mut(&seq) else { return };
        let Some(duty) = &self.duty else {
            // MEM-Tree: everyone is served now, priced at the farthest child.
            let farthest =
                p.remaining.iter().map(|&(i, _)| self.children[i].1).fold(0.0f64, f64::max);
            let (tag, size) = (p.tag, p.size_bytes);
            self.pending.remove(&seq);
            let range = self.tx_range(ctx, farthest);
            ctx.broadcast_data(size, range, tag, MinEnergyPayload);
            return;
        };
        let delivery_at = ctx.now + ctx.radio.delivery_delay(p.size_bytes);
        let mut farthest_awake = 0.0f64;
        let mut next_wake = None;
        let fold_wake = |next_wake: &mut Option<ssmcast_dessim::SimTime>,
                         wake: ssmcast_dessim::SimTime| {
            *next_wake = Some(next_wake.map_or(wake, |w| w.min(wake)));
        };
        let children = &self.children;
        p.remaining.retain_mut(|(i, tries)| {
            let (child, dist) = children[*i];
            if duty.is_awake(child, delivery_at) {
                farthest_awake = farthest_awake.max(dist);
                *tries -= 1;
                if *tries == 0 {
                    return false;
                }
                // Served, but without acknowledgements the copy may still have been
                // lost: schedule one more serve a full period out — the child's next
                // window, at the same in-window offset.
                fold_wake(&mut next_wake, delivery_at + duty.period());
                true
            } else {
                fold_wake(&mut next_wake, duty.next_awake_at(child, delivery_at));
                true
            }
        });
        let (tag, size) = (p.tag, p.size_bytes);
        if p.remaining.is_empty() {
            self.pending.remove(&seq);
        }
        if farthest_awake > 0.0 {
            let range = self.tx_range(ctx, farthest_awake);
            ctx.broadcast_data(size, range, tag, MinEnergyPayload);
        }
        if let Some(wake) = next_wake {
            // Fire one delivery-delay before the wake so the frame lands as the window
            // opens (`wake > delivery_at` here, so the delay is positive) — plus a
            // random stagger across the first half of the window. Without the stagger
            // every packet queued during the same sleep interval fires at window-open
            // and the copies collide on air; the child is awake for the whole window,
            // so any instant in the first half delivers equally well.
            let stagger = ctx.jitter(duty.awake_len().mul_f64(0.5));
            ctx.set_timer(wake.saturating_since(delivery_at) + stagger, TIMER_DEFER, seq);
        }
    }

    fn accept(&mut self, ctx: &mut NodeCtx<'_, MinEnergyPayload>, tag: DataTag, size: u32) {
        if !self.children.is_empty() {
            // The redundant second serve only pays off when radios actually sleep;
            // with an always-awake schedule (or plain MEM-Tree) one copy is the tree.
            let tries = match &self.duty {
                Some(d) if d.is_on() => DCA_TRIES,
                _ => 1,
            };
            self.pending.insert(
                tag.seq,
                PendingForward {
                    tag,
                    size_bytes: size,
                    remaining: (0..self.children.len()).map(|i| (i, tries)).collect(),
                },
            );
            self.forward(ctx, tag.seq);
        }
    }
}

impl ProtocolAgent for MinEnergyAgent {
    type Payload = MinEnergyPayload;

    fn start(&mut self, _ctx: &mut NodeCtx<'_, MinEnergyPayload>) {}

    fn on_packet(
        &mut self,
        ctx: &mut NodeCtx<'_, MinEnergyPayload>,
        packet: &Packet<MinEnergyPayload>,
    ) -> Disposition {
        let Some(tag) = packet.data else { return Disposition::Discarded };
        if !self.seen.insert(tag.seq) {
            return Disposition::Discarded;
        }
        let member = ctx.is_member() && !ctx.is_source();
        if member {
            ctx.deliver_data(tag);
        }
        if member || !self.children.is_empty() {
            self.accept(ctx, tag, packet.size_bytes);
            Disposition::Consumed
        } else {
            Disposition::Discarded
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, MinEnergyPayload>, kind: u64, key: u64) {
        if kind == TIMER_DEFER {
            self.forward(ctx, key);
        }
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, MinEnergyPayload>, tag: DataTag, size: u32) {
        self.seen.insert(tag.seq);
        self.accept(ctx, tag, size);
    }

    fn label(&self) -> &'static str {
        if self.duty.is_some() {
            "DCA-Forward"
        } else {
            "MEM-Tree"
        }
    }

    fn tree_parent(&self) -> Option<NodeId> {
        self.parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssmcast_dessim::{SimDuration, SimTime};
    use ssmcast_manet::{Action, GroupId, GroupRole, PacketClass, RadioConfig, Vec2};

    fn tag(seq: u64) -> DataTag {
        DataTag { group: GroupId(0), origin: NodeId(0), seq, created_at: SimTime::ZERO }
    }

    fn drive<R>(
        agent: &mut MinEnergyAgent,
        now: SimTime,
        role: GroupRole,
        f: impl FnOnce(&mut MinEnergyAgent, &mut NodeCtx<'_, MinEnergyPayload>) -> R,
    ) -> (R, Vec<Action<MinEnergyPayload>>) {
        let radio = RadioConfig::default();
        let mut rng = StdRng::seed_from_u64(9);
        let mut actions = Vec::new();
        let r = {
            let mut ctx =
                NodeCtx::new(now, NodeId(1), Vec2::ZERO, role, 8, &radio, &mut rng, &mut actions);
            f(agent, &mut ctx)
        };
        (r, actions)
    }

    #[test]
    fn mem_tree_forwards_once_at_farthest_child_range() {
        let mut agent =
            MinEnergyAgent::mem_tree(Some(NodeId(0)), vec![(NodeId(2), 80.0), (NodeId(3), 120.0)]);
        let pkt = Packet::data(NodeId(0), 512, tag(7), MinEnergyPayload);
        let (disp, actions) =
            drive(&mut agent, SimTime::ZERO, GroupRole::Member, |a, ctx| a.on_packet(ctx, &pkt));
        assert_eq!(disp, Disposition::Consumed);
        assert!(actions.iter().any(|a| matches!(a, Action::DeliverData { .. })));
        let ranges: Vec<f64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast { class: PacketClass::Data, range_m, .. } => Some(*range_m),
                _ => None,
            })
            .collect();
        assert_eq!(ranges.len(), 1, "one batched transmission");
        assert!((ranges[0] - 120.0 * RANGE_MARGIN).abs() < 1e-9);
        // A second copy of the same packet does nothing.
        let (disp, actions) =
            drive(&mut agent, SimTime::ZERO, GroupRole::Member, |a, ctx| a.on_packet(ctx, &pkt));
        assert_eq!(disp, Disposition::Discarded);
        assert!(actions.is_empty());
    }

    #[test]
    fn non_tree_non_member_discards() {
        let mut agent = MinEnergyAgent::mem_tree(None, Vec::new());
        let pkt = Packet::data(NodeId(0), 512, tag(1), MinEnergyPayload);
        let (disp, actions) =
            drive(&mut agent, SimTime::ZERO, GroupRole::NonMember, |a, ctx| a.on_packet(ctx, &pkt));
        assert_eq!(disp, Disposition::Discarded);
        assert!(actions.is_empty());
    }

    #[test]
    fn dca_batches_awake_children_and_defers_sleepers() {
        // Period 1 s, awake 0.5 s. Child 2 (phase 0) is awake at t=0; child 3
        // (phase 0.5 s) sleeps [0, 0.5) and wakes at 0.5 s.
        let duty = Arc::new(DutySchedule::with_phases(
            1_000_000_000,
            500_000_000,
            vec![0, 0, 0, 500_000_000],
        ));
        let mut agent = MinEnergyAgent::dca_forward(
            Some(NodeId(0)),
            vec![(NodeId(2), 80.0), (NodeId(3), 120.0)],
            duty,
        );
        let pkt = Packet::data(NodeId(0), 512, tag(7), MinEnergyPayload);
        let (_, actions) =
            drive(&mut agent, SimTime::ZERO, GroupRole::NonMember, |a, ctx| a.on_packet(ctx, &pkt));
        // Immediate batch covers only the awake child 2 → priced at 80 m.
        let bcasts: Vec<f64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast { class: PacketClass::Data, range_m, .. } => Some(*range_m),
                _ => None,
            })
            .collect();
        assert_eq!(bcasts.len(), 1);
        assert!((bcasts[0] - 80.0 * RANGE_MARGIN).abs() < 1e-9);
        // And a timer is armed for the sleeper's wake window.
        let delay = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { delay, kind: TIMER_DEFER, key: 7 } => Some(*delay),
                _ => None,
            })
            .expect("deferred forward armed");
        let radio = RadioConfig::default();
        let dd = radio.delivery_delay(512);
        // The deferred copy lands inside the first half of the sleeper's wake window
        // ([0.5 s, 0.75 s)): one delivery-delay after the fire instant, staggered to
        // keep back-to-back deferrals from colliding at window-open.
        let lands_at = SimTime::ZERO + delay + dd;
        let wake = SimTime::ZERO + SimDuration::from_nanos(500_000_000);
        assert!(lands_at >= wake, "must not land before the window opens");
        assert!(lands_at < wake + SimDuration::from_nanos(250_000_000));
        // Firing the timer sends the deferred copy priced at the sleeper's distance
        // (child 2 is asleep by then, so it does not stretch the range).
        let (_, actions) =
            drive(&mut agent, SimTime::ZERO + delay, GroupRole::NonMember, |a, ctx| {
                a.on_timer(ctx, TIMER_DEFER, 7)
            });
        let bcasts: Vec<f64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast { class: PacketClass::Data, range_m, .. } => Some(*range_m),
                _ => None,
            })
            .collect();
        assert_eq!(bcasts.len(), 1, "deferred copy goes out exactly once");
        assert!((bcasts[0] - 120.0 * RANGE_MARGIN).abs() < 1e-9);
        // Each child is owed one redundant serve (DCA_TRIES = 2): keep firing the
        // armed timers and check the packet drains within the bounded tx budget.
        let mut now = SimTime::ZERO + delay;
        let mut extra_bcasts = 0;
        let mut next_delay = actions.iter().find_map(|a| match a {
            Action::SetTimer { delay, kind: TIMER_DEFER, key: 7 } => Some(*delay),
            _ => None,
        });
        let mut fires = 0;
        while let Some(d) = next_delay {
            fires += 1;
            assert!(fires <= 2 * DCA_TRIES as usize, "retry machinery must stay bounded");
            now += d;
            let (_, actions) = drive(&mut agent, now, GroupRole::NonMember, |a, ctx| {
                a.on_timer(ctx, TIMER_DEFER, 7)
            });
            extra_bcasts += actions
                .iter()
                .filter(|a| matches!(a, Action::Broadcast { class: PacketClass::Data, .. }))
                .count();
            next_delay = actions.iter().find_map(|a| match a {
                Action::SetTimer { delay, kind: TIMER_DEFER, key: 7 } => Some(*delay),
                _ => None,
            });
        }
        // 2 children × 2 tries = 4 serves total; 2 already went out above.
        assert!(extra_bcasts <= 2, "at most one redundant serve per child: {extra_bcasts}");
        // Fully drained: a stray timer fire does nothing.
        let (_, actions) =
            drive(&mut agent, now, GroupRole::NonMember, |a, ctx| a.on_timer(ctx, TIMER_DEFER, 7));
        assert!(actions.is_empty());
    }

    #[test]
    fn dca_with_everyone_awake_degenerates_to_mem_tree() {
        let duty = Arc::new(DutySchedule::always_awake());
        let mut agent =
            MinEnergyAgent::dca_forward(None, vec![(NodeId(2), 80.0), (NodeId(3), 120.0)], duty);
        let (_, actions) = drive(&mut agent, SimTime::ZERO, GroupRole::Source, |a, ctx| {
            a.on_app_data(ctx, tag(1), 512)
        });
        let bcasts = actions
            .iter()
            .filter(|a| matches!(a, Action::Broadcast { class: PacketClass::Data, .. }))
            .count();
        let timers = actions.iter().filter(|a| matches!(a, Action::SetTimer { .. })).count();
        assert_eq!((bcasts, timers), (1, 0));
    }
}
