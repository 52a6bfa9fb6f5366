//! Synchronous round-based model of the SS-SPST-E self-stabilization algorithm (and,
//! under [`MetricKind::Bottleneck`], of SS-MST).
//!
//! The paper measures stabilization in *rounds*: a round is the period in which every node
//! has heard one beacon from each neighbour and recomputed its state. This module runs the
//! guarded commands of Section 5 directly on a [`MulticastTopology`] with exact global
//! knowledge, one synchronous round at a time. It is used for
//!
//! * the worked examples of Figures 1–6 (tree shapes and stabilization round counts),
//! * the convergence / closure / loop-freedom lemmas (unit and property tests), and
//! * fault-injection experiments (arbitrary initial states, topology changes).
//!
//! The event-driven agent in [`crate::agent`] implements the same rules on top of beacons
//! and timers inside the network simulator.

use crate::graph::MulticastTopology;
use crate::metric::{cost_via, MetricKind, MetricParams, ParentView};
use crate::tree::MulticastTree;
use rand::Rng;
use ssmcast_manet::NodeId;

/// A node abandons its current (still valid) parent only if an alternative is better by
/// more than this relative margin. Prevents oscillation between equal-cost parents
/// under the node-based metrics.
const SWITCH_MARGIN: f64 = 0.05;

/// Per-node protocol variables: the paper's `l_v` (cost), `h_v` (hop count) and `p_v`
/// (parent pointer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeState {
    /// Accumulated overhead cost from the source, `l_v`.
    pub cost: f64,
    /// Hop count to the source, `h_v`.
    pub hop: u32,
    /// Current parent, `p_v`.
    pub parent: Option<NodeId>,
}

/// Result of one synchronous round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundReport {
    /// Nodes whose state changed this round.
    pub changed: usize,
    /// Nodes that switched parents this round.
    pub parent_changes: usize,
}

/// The synchronous self-stabilization executor.
#[derive(Clone, Debug)]
pub struct SyncModel {
    topo: MulticastTopology,
    kind: MetricKind,
    params: MetricParams,
    state: Vec<NodeState>,
    max_hops: u32,
    infinity_cost: f64,
    /// Round counter; parent switches are parity-gated on `(round + node id)` so that two
    /// coupled nodes never switch in the same round, which damps the re-pricing
    /// oscillations the node-based metrics (F, E) can otherwise sustain.
    round_index: u64,
}

impl SyncModel {
    /// Create a model in the paper's "arbitrary initial state": every node disconnected
    /// with cost `E_init` (a value larger than any possible tree cost) and hop count `N`.
    pub fn new(topo: MulticastTopology, kind: MetricKind, params: MetricParams) -> Self {
        let n = topo.len();
        let max_hops = n as u32;
        let infinity_cost = Self::infinity_for(&topo, kind, &params);
        let state = vec![NodeState { cost: infinity_cost, hop: max_hops, parent: None }; n];
        SyncModel { topo, kind, params, state, max_hops, infinity_cost, round_index: 0 }
    }

    /// `E_init`: strictly greater than the maximum possible tree cost, which the paper
    /// bounds by the cost of the source reaching every node in one hop.
    fn infinity_for(topo: &MulticastTopology, kind: MetricKind, params: &MetricParams) -> f64 {
        let worst_link = topo
            .nodes()
            .flat_map(|v| topo.neighbors(v).iter().map(|(_, d)| *d))
            .fold(0.0, f64::max)
            .max(1.0);
        kind.infinity_cost(params, topo.len(), worst_link)
    }

    /// The cost value representing "not connected".
    pub fn infinity_cost(&self) -> f64 {
        self.infinity_cost
    }

    /// The metric this model stabilizes.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// The underlying topology.
    pub fn topology(&self) -> &MulticastTopology {
        &self.topo
    }

    /// Current state of node `v`.
    pub fn state(&self, v: NodeId) -> NodeState {
        self.state[v.index()]
    }

    /// Overwrite the state of node `v` (fault injection / arbitrary initial states).
    pub fn set_state(&mut self, v: NodeId, state: NodeState) {
        self.state[v.index()] = state;
    }

    /// Randomise the state of every node: random parents (possibly invalid), random costs
    /// and hop counts. Used to exercise self-stabilization from garbage states.
    pub fn scramble<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.topo.len() as u32;
        for v in 0..n {
            let parent = if rng.gen_bool(0.7) { Some(NodeId(rng.gen_range(0..n))) } else { None };
            self.state[v as usize] = NodeState {
                cost: rng.gen_range(0.0..self.infinity_cost),
                hop: rng.gen_range(0..=self.max_hops),
                parent: parent.filter(|p| *p != NodeId(v)),
            };
        }
    }

    /// Replace the topology (e.g. after nodes moved) while keeping protocol state — this is
    /// exactly how a topological change appears to the protocol: state refers to neighbours
    /// that may no longer exist.
    pub fn set_topology(&mut self, topo: MulticastTopology) {
        assert_eq!(topo.len(), self.topo.len(), "node count must be preserved");
        self.infinity_cost = Self::infinity_for(&topo, self.kind, &self.params);
        self.topo = topo;
    }

    /// The tree induced by the current parent pointers.
    pub fn tree(&self) -> MulticastTree {
        MulticastTree::new(self.topo.source(), self.state.iter().map(|s| s.parent).collect())
    }

    /// Sum of all cost variables (the quantity Lemma 1 shows is non-increasing).
    pub fn total_cost(&self) -> f64 {
        self.state.iter().map(|s| s.cost).sum()
    }

    /// What `v` would see about candidate parent `u` through beacons: `u`'s advertised
    /// cost/hop, the distances to `u`'s current children other than `v`, and the distances
    /// to `u`'s non-member, non-tree neighbours other than `v`.
    fn parent_view(&self, u: NodeId, v: NodeId) -> ParentView {
        let su = self.state[u.index()];
        let mut child_distances = Vec::new();
        for &(w, d) in self.topo.neighbors(u) {
            if w != v && self.state[w.index()].parent == Some(u) {
                child_distances.push(d);
            }
        }
        let mut non_member = Vec::new();
        if self.kind == MetricKind::EnergyAware {
            for &(w, d) in self.topo.neighbors(u) {
                if w == v || self.topo.is_member(w) {
                    continue;
                }
                let w_is_tree_neighbor =
                    self.state[w.index()].parent == Some(u) || su.parent == Some(w);
                if !w_is_tree_neighbor {
                    non_member.push(d);
                }
            }
        }
        ParentView {
            cost: su.cost,
            hop: su.hop,
            child_distances,
            non_member_neighbor_distances: non_member,
        }
    }

    /// Compute the next state of node `v` from the frozen previous-round states.
    /// `allow_switch` gates whether the node may abandon a still-usable parent this round.
    fn next_state(&self, v: NodeId, allow_switch: bool) -> NodeState {
        if v == self.topo.source() {
            return NodeState { cost: 0.0, hop: 0, parent: None };
        }
        // N^h_v: neighbours that could serve as parents without exceeding the hop bound.
        let candidates = self.topo.neighbors(v).iter().filter_map(|&(u, d)| {
            let su = self.state[u.index()];
            let usable = su.cost < self.infinity_cost
                && su.hop.saturating_add(1) <= self.max_hops
                // The minimax loop guard (see `MetricKind::is_additive`).
                && (self.kind.is_additive() || su.parent != Some(v));
            usable.then(|| {
                (u, cost_via(self.kind, &self.params, &self.parent_view(u, v), d), su.hop + 1)
            })
        });
        let current = self.state[v.index()].parent;
        match choose_parent(candidates, current, allow_switch) {
            Some((u, cost, hop)) => NodeState { cost, hop, parent: Some(u) },
            None => NodeState { cost: self.infinity_cost, hop: self.max_hops, parent: None },
        }
    }

    /// Execute one synchronous round: every node recomputes its state from the previous
    /// round's states (as if it had just heard one beacon from every neighbour).
    pub fn round(&mut self) -> RoundReport {
        self.round_index += 1;
        let round = self.round_index;
        let next: Vec<NodeState> = self
            .topo
            .nodes()
            .map(|v| self.next_state(v, (round + v.index() as u64).is_multiple_of(2)))
            .collect();
        let mut changed = 0;
        let mut parent_changes = 0;
        for (old, new) in self.state.iter().zip(&next) {
            let cost_moved = (old.cost - new.cost).abs() > 1e-9;
            if cost_moved || old.hop != new.hop || old.parent != new.parent {
                changed += 1;
            }
            if old.parent != new.parent {
                parent_changes += 1;
            }
        }
        self.state = next;
        RoundReport { changed, parent_changes }
    }

    /// Run rounds until nothing changes. Returns the number of rounds needed, or `None`
    /// if the system did not quiesce within `max_rounds`.
    pub fn run_to_stabilization(&mut self, max_rounds: usize) -> Option<usize> {
        (1..=max_rounds).find(|_| self.round().changed == 0 && self.is_stable())
    }

    /// True if a further round would change nothing — i.e. the system is in a legitimate
    /// state for this metric.
    pub fn is_stable(&self) -> bool {
        self.topo.nodes().all(|v| {
            let next = self.next_state(v, true);
            let cur = self.state[v.index()];
            (cur.cost - next.cost).abs() <= 1e-9 && cur.hop == next.hop && cur.parent == next.parent
        })
    }
}

/// The guarded command's parent choice, shared by [`SyncModel`] and the event-driven
/// agent. `candidates` are the usable neighbours `(u, cost via u, hop via u)`. The
/// cheapest wins, ties within 1e-12 going to the lower id, unless `current` is still a
/// candidate and either within [`SWITCH_MARGIN`] of the best (hysteresis against
/// flapping) or `may_switch` is false (the synchronous model's parity gate, which damps
/// the coupled re-pricing oscillations of the node-based metrics). `None` means no
/// neighbour is usable and the node detaches.
pub(crate) fn choose_parent(
    candidates: impl IntoIterator<Item = (NodeId, f64, u32)>,
    current: Option<NodeId>,
    may_switch: bool,
) -> Option<(NodeId, f64, u32)> {
    let mut best: Option<(NodeId, f64, u32)> = None;
    let mut via_current = None;
    for (u, c, h) in candidates {
        if current == Some(u) {
            via_current = Some((u, c, h));
        }
        let better = match best {
            None => true,
            Some((bu, bc, _)) => c < bc - 1e-12 || ((c - bc).abs() <= 1e-12 && u < bu),
        };
        if better {
            best = Some((u, c, h));
        }
    }
    let (_, best_cost, _) = best?;
    match via_current {
        Some((_, cc, _)) if !may_switch || cc <= best_cost * (1.0 + SWITCH_MARGIN) + 1e-12 => {
            via_current
        }
        _ => best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line topology 0 - 1 - 2 - 3 with a long chord 0 - 3 (within range).
    fn line_with_chord() -> MulticastTopology {
        MulticastTopology::from_edges(
            4,
            &[(0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0), (0, 3, 240.0)],
            NodeId(0),
            vec![true, true, true, true],
        )
    }

    #[test]
    fn hop_metric_builds_a_bfs_tree() {
        let topo = line_with_chord();
        let mut m = SyncModel::new(topo.clone(), MetricKind::Hop, MetricParams::default());
        let rounds = m.run_to_stabilization(20).expect("must stabilize");
        assert!(rounds <= topo.len() + 1, "stabilizes within N+1 rounds, took {rounds}");
        let tree = m.tree();
        assert!(tree.is_spanning());
        // Hop tree: node 3 attaches directly to the source over the chord.
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(0)));
        let hops = topo.hops_from_source();
        for v in topo.nodes() {
            assert_eq!(Some(m.state(v).hop), hops[v.index()], "hop counts are BFS distances");
        }
    }

    #[test]
    fn txlink_metric_avoids_the_long_chord() {
        let topo = line_with_chord();
        let mut m = SyncModel::new(topo, MetricKind::TxLink, MetricParams::default());
        m.run_to_stabilization(30).expect("must stabilize");
        let tree = m.tree();
        assert!(tree.is_spanning());
        // Three 100 m hops cost 3·(e+a·100²) which is far below one 240 m hop (a·240²),
        // so node 3 relays through node 2 rather than using the chord.
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(tree.max_depth(), 3);
    }

    #[test]
    fn total_cost_is_monotone_nonincreasing_from_initial_state() {
        // Lemma 1. For the link-based metrics (Hop, TxLink) the per-round total cost is
        // strictly non-increasing (this is a Bellman-Ford relaxation). For the node-based
        // metrics (F, E) a parent switch re-prices the switching node's siblings, so the
        // total can tick up transiently; the lemma's conclusion — the cost settles at a
        // minimum and stays there — is checked for all four in `closure_once_stable_...`
        // and the convergence tests. Here we assert strict monotonicity where it holds and
        // overall improvement for the node-based metrics.
        let topo = line_with_chord();
        for kind in [MetricKind::Hop, MetricKind::TxLink] {
            let mut m = SyncModel::new(topo.clone(), kind, MetricParams::default());
            let mut prev = m.total_cost();
            for _ in 0..20 {
                m.round();
                let cur = m.total_cost();
                assert!(cur <= prev + 1e-9, "Lemma 1 violated for {kind:?}: {cur} > {prev}");
                prev = cur;
            }
        }
        for kind in [MetricKind::Farthest, MetricKind::EnergyAware] {
            let mut m = SyncModel::new(topo.clone(), kind, MetricParams::default());
            let initial = m.total_cost();
            let after_first = {
                m.round();
                m.total_cost()
            };
            m.run_to_stabilization(40).expect("stabilizes");
            let final_cost = m.total_cost();
            assert!(after_first <= initial);
            assert!(final_cost <= after_first + 1e-9, "{kind:?}: {final_cost} > {after_first}");
        }
    }

    #[test]
    fn closure_once_stable_stays_stable() {
        let topo = line_with_chord();
        for kind in MetricKind::ALL {
            let mut m = SyncModel::new(topo.clone(), kind, MetricParams::default());
            m.run_to_stabilization(40).expect("stabilizes");
            let tree_before = m.tree();
            let cost_before = m.total_cost();
            for _ in 0..10 {
                let r = m.round();
                assert_eq!(r.changed, 0, "Lemma 2 violated for {kind:?}");
            }
            assert_eq!(m.tree(), tree_before);
            assert!((m.total_cost() - cost_before).abs() < 1e-12);
        }
    }

    #[test]
    fn recovers_from_scrambled_state() {
        use rand::SeedableRng;
        let topo = line_with_chord();
        for kind in MetricKind::ALL {
            let mut m = SyncModel::new(topo.clone(), kind, MetricParams::default());
            let mut rng = rand::rngs::StdRng::seed_from_u64(99);
            m.scramble(&mut rng);
            let rounds = m.run_to_stabilization(60).expect("self-stabilizes from garbage");
            assert!(rounds > 0);
            assert!(m.tree().is_spanning(), "{kind:?} must rebuild a spanning tree");
            assert!(!m.tree().has_cycle(), "Lemma 3: no loops after stabilization");
        }
    }

    #[test]
    fn bottleneck_metric_builds_the_minimax_tree_from_any_state() {
        use rand::SeedableRng;
        // Node 3 reaches the source over the 240 m chord in one hop or over three
        // 100 m links; the minimax tree takes the chain, whose longest link is 100 m.
        let topo = line_with_chord();
        for seed in 0..20 {
            let mut m =
                SyncModel::new(topo.clone(), MetricKind::Bottleneck, MetricParams::default());
            m.scramble(&mut rand::rngs::StdRng::seed_from_u64(seed));
            m.run_to_stabilization(60).expect("self-stabilizes from garbage");
            let tree = m.tree();
            assert!(tree.is_spanning() && !tree.has_cycle(), "seed {seed}");
            assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)), "seed {seed}");
            assert_eq!(tree.bottleneck_cost(&topo), 100.0);
            assert_eq!(m.state(NodeId(3)).cost, 100.0, "a path costs its longest link");
        }
    }

    #[test]
    fn topology_change_is_absorbed() {
        let topo = line_with_chord();
        let mut m = SyncModel::new(topo, MetricKind::EnergyAware, MetricParams::default());
        m.run_to_stabilization(40).unwrap();
        // Node 3 moves away from node 2: the 2-3 link breaks, only the chord remains.
        let moved = MulticastTopology::from_edges(
            4,
            &[(0, 1, 100.0), (1, 2, 100.0), (0, 3, 240.0)],
            NodeId(0),
            vec![true, true, true, true],
        );
        m.set_topology(moved);
        m.run_to_stabilization(40).expect("restabilizes after the fault");
        let tree = m.tree();
        assert!(tree.is_spanning());
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(0)), "only remaining route is the chord");
    }

    #[test]
    fn partitioned_node_reports_infinite_cost() {
        let topo =
            MulticastTopology::from_edges(3, &[(0, 1, 100.0)], NodeId(0), vec![true, true, true]);
        let mut m = SyncModel::new(topo, MetricKind::EnergyAware, MetricParams::default());
        m.run_to_stabilization(20).unwrap();
        assert_eq!(m.state(NodeId(2)).parent, None);
        assert!(m.state(NodeId(2)).cost >= m.infinity_cost());
        assert!(m.state(NodeId(1)).cost < m.infinity_cost());
    }

    #[test]
    fn source_state_is_fixed() {
        let topo = line_with_chord();
        let mut m = SyncModel::new(topo, MetricKind::Farthest, MetricParams::default());
        m.set_state(NodeId(0), NodeState { cost: 123.0, hop: 7, parent: Some(NodeId(3)) });
        m.round();
        let s = m.state(NodeId(0));
        assert_eq!(s.cost, 0.0);
        assert_eq!(s.hop, 0);
        assert_eq!(s.parent, None);
    }

    #[test]
    fn is_stable_matches_round_behaviour() {
        let topo = line_with_chord();
        let mut m = SyncModel::new(topo, MetricKind::TxLink, MetricParams::default());
        assert!(!m.is_stable());
        m.run_to_stabilization(30).unwrap();
        assert!(m.is_stable());
    }
}
