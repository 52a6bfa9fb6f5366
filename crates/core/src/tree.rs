//! Multicast tree representation, validation and costing.

use crate::graph::MulticastTopology;
use crate::metric::{node_cost, MetricKind, MetricParams};
use ssmcast_manet::NodeId;

/// A (candidate) multicast tree given by per-node parent pointers.
///
/// The source has no parent. Nodes whose parent is `None` and that are not the source are
/// *disconnected* (legal mid-stabilization, illegal in a legitimate state on a connected
/// graph).
#[derive(Clone, Debug, PartialEq)]
pub struct MulticastTree {
    source: NodeId,
    parent: Vec<Option<NodeId>>,
}

impl MulticastTree {
    /// Build a tree from parent pointers.
    pub fn new(source: NodeId, parent: Vec<Option<NodeId>>) -> Self {
        assert!(source.index() < parent.len(), "source must exist");
        MulticastTree { source, parent }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The multicast source (tree root).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Parent of `v` (None for the source or disconnected nodes).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Children of `v`, in node-id order.
    pub fn children(&self, v: NodeId) -> Vec<NodeId> {
        (0..self.parent.len() as u32)
            .map(NodeId)
            .filter(|&c| self.parent[c.index()] == Some(v))
            .collect()
    }

    /// Hop depth of `v` (0 for the source); `None` if `v` does not reach the source
    /// (disconnected or caught in a parent-pointer cycle).
    pub fn depth(&self, v: NodeId) -> Option<u32> {
        let mut cur = v;
        let mut hops = 0u32;
        loop {
            if cur == self.source {
                return Some(hops);
            }
            let p = self.parent[cur.index()]?;
            hops += 1;
            if hops as usize > self.parent.len() {
                return None; // cycle
            }
            cur = p;
        }
    }

    /// Maximum depth over all connected nodes.
    pub fn max_depth(&self) -> u32 {
        (0..self.parent.len() as u32).filter_map(|v| self.depth(NodeId(v))).max().unwrap_or(0)
    }

    /// Nodes that reach the source through parent pointers (the source included).
    pub fn connected_nodes(&self) -> Vec<NodeId> {
        (0..self.parent.len() as u32).map(NodeId).filter(|&v| self.depth(v).is_some()).collect()
    }

    /// True if every node reaches the source and there are no cycles — the structural part
    /// of the paper's legitimate-state predicate.
    pub fn is_spanning(&self) -> bool {
        self.connected_nodes().len() == self.parent.len()
    }

    /// True if the parent pointers contain a cycle (count-to-infinity symptom).
    pub fn has_cycle(&self) -> bool {
        (0..self.parent.len() as u32).any(|v| {
            let v = NodeId(v);
            self.depth(v).is_none() && {
                // Distinguish "disconnected chain ending in None" from a real cycle by
                // walking with a step budget: a chain ends at a parentless node.
                let mut cur = v;
                let mut steps = 0;
                loop {
                    match self.parent[cur.index()] {
                        None => break false,
                        Some(p) => {
                            cur = p;
                            steps += 1;
                            if cur == self.source {
                                break false;
                            }
                            if steps > self.parent.len() {
                                break true;
                            }
                        }
                    }
                }
            }
        })
    }

    /// All tree edges as (parent, child, distance) using the topology's distances.
    /// Edges whose endpoints are not adjacent in the topology get `None` (a stale edge).
    pub fn edges<'a>(
        &'a self,
        topo: &'a MulticastTopology,
    ) -> impl Iterator<Item = (NodeId, NodeId, Option<f64>)> + 'a {
        (0..self.parent.len() as u32).filter_map(move |v| {
            let v = NodeId(v);
            self.parent[v.index()].map(|p| (p, v, topo.distance(p, v)))
        })
    }

    /// The set of nodes that must forward data: nodes whose subtree contains a group
    /// member. This is the paper's bottom-up pruning flag, computed globally.
    pub fn forwarding_set(&self, topo: &MulticastTopology) -> Vec<bool> {
        let n = self.parent.len();
        let mut flag = vec![false; n];
        for v in 0..n as u32 {
            let v = NodeId(v);
            if !topo.is_member(v) || self.depth(v).is_none() {
                continue;
            }
            // Mark v and all its ancestors.
            let mut cur = v;
            loop {
                if flag[cur.index()] {
                    break;
                }
                flag[cur.index()] = true;
                match self.parent[cur.index()] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        flag
    }

    /// Per-node distances to children, restricted to children that still are neighbours in
    /// `topo` (a moved-away child contributes nothing — the link is broken).
    pub fn child_distances(&self, topo: &MulticastTopology, v: NodeId) -> Vec<f64> {
        self.children(v).into_iter().filter_map(|c| topo.distance(v, c)).collect()
    }

    /// Total tree cost: the sum over nodes of the metric's *node cost* (equation 2 / 4),
    /// restricted to nodes that actually forward data (the pruned tree).
    pub fn total_cost(
        &self,
        kind: MetricKind,
        params: &MetricParams,
        topo: &MulticastTopology,
    ) -> f64 {
        let forwarding = self.forwarding_set(topo);
        let mut total = 0.0;
        for v in topo.nodes() {
            if !forwarding[v.index()] {
                continue;
            }
            let child_dists: Vec<f64> = self
                .children(v)
                .into_iter()
                .filter(|c| forwarding[c.index()])
                .filter_map(|c| topo.distance(v, c))
                .collect();
            let tree_neighbors = child_dists.len() + usize::from(self.parent(v).is_some());
            let far = child_dists.iter().copied().fold(0.0, f64::max);
            let non_member: Vec<f64> = topo
                .neighbors(v)
                .iter()
                .filter(|(u, _)| {
                    !topo.is_member(*u) && self.parent(*u) != Some(v) && self.parent(v) != Some(*u)
                })
                .map(|(_, d)| *d)
                .filter(|&d| d <= far)
                .collect();
            total += node_cost(kind, params, &child_dists, tree_neighbors, &non_member);
        }
        total
    }

    /// Per-data-packet energy actually expended by the whole network if one packet flows
    /// down the (pruned) tree: every forwarder transmits to its farthest forwarding child,
    /// every forwarding child receives, and every neighbour inside a transmitter's range
    /// overhears. This is the "ground truth" the metrics approximate.
    pub fn per_packet_energy(&self, params: &MetricParams, topo: &MulticastTopology) -> f64 {
        let forwarding = self.forwarding_set(topo);
        let mut total = 0.0;
        for v in topo.nodes() {
            if !forwarding[v.index()] {
                continue;
            }
            let child_dists = self
                .children(v)
                .into_iter()
                .filter(|c| forwarding[c.index()])
                .filter_map(|c| topo.distance(v, c))
                .collect::<Vec<_>>();
            if child_dists.is_empty() {
                continue;
            }
            let far = child_dists.iter().copied().fold(0.0, f64::max);
            total += params.tx(far);
            // Every neighbour within the transmission range receives the packet, whether it
            // wanted it or not.
            let receivers = topo.neighbors(v).iter().filter(|(_, d)| *d <= far).count();
            total += receivers as f64 * params.rx();
        }
        total
    }

    /// The bottleneck cost of the tree: the longest single link among its edges still
    /// present in the topology — the minimax objective SS-MST stabilizes. Stale edges
    /// (endpoints no longer adjacent) are skipped.
    pub fn bottleneck_cost(&self, topo: &MulticastTopology) -> f64 {
        self.edges(topo).filter_map(|(_, _, d)| d).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0 - 1 - 2 - 3, plus a long chord 0 - 3.
    fn topo() -> MulticastTopology {
        MulticastTopology::from_edges(
            4,
            &[(0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0), (0, 3, 240.0)],
            NodeId(0),
            vec![true, false, false, true],
        )
    }

    #[test]
    fn children_depth_and_spanning() {
        let t = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))],
        );
        assert_eq!(t.children(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(t.children(NodeId(2)), vec![NodeId(3)]);
        assert_eq!(t.depth(NodeId(0)), Some(0));
        assert_eq!(t.depth(NodeId(3)), Some(3));
        assert_eq!(t.max_depth(), 3);
        assert!(t.is_spanning());
        assert!(!t.has_cycle());
    }

    #[test]
    fn cycles_are_detected_and_break_depth() {
        let t = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(2)), Some(NodeId(1)), Some(NodeId(0))],
        );
        assert_eq!(t.depth(NodeId(1)), None);
        assert!(t.has_cycle());
        assert!(!t.is_spanning());
    }

    #[test]
    fn disconnected_node_is_not_a_cycle() {
        let t = MulticastTree::new(NodeId(0), vec![None, None, Some(NodeId(1)), Some(NodeId(0))]);
        assert!(!t.has_cycle());
        assert!(!t.is_spanning());
        assert_eq!(t.depth(NodeId(2)), None);
        assert_eq!(t.connected_nodes(), vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn forwarding_set_prunes_memberless_branches() {
        let topo = topo();
        // Chain tree: 0 -> 1 -> 2 -> 3. Members: 0 and 3, so everyone forwards.
        let chain = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))],
        );
        assert_eq!(chain.forwarding_set(&topo), vec![true, true, true, true]);
        // Star-ish tree: 3 hangs directly off 0; the 1-2 branch has no members and is pruned.
        let star = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(0))],
        );
        assert_eq!(star.forwarding_set(&topo), vec![true, false, false, true]);
    }

    #[test]
    fn total_cost_prefers_short_links_for_energy_metrics() {
        let topo = topo();
        let params = MetricParams::default();
        let chain = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))],
        );
        let direct = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(0))],
        );
        // Hop metric prefers the direct (shallow) tree; energy metrics prefer the chain of
        // short links over one 240 m transmission.
        let chain_e = chain.total_cost(MetricKind::TxLink, &params, &topo);
        let direct_e = direct.total_cost(MetricKind::TxLink, &params, &topo);
        assert!(
            chain_e < direct_e,
            "3×100 m links are cheaper than one 240 m link: {chain_e} vs {direct_e}"
        );
        assert!(chain.max_depth() > direct.max_depth());
    }

    #[test]
    fn per_packet_energy_counts_overhearing() {
        let topo = topo();
        let params = MetricParams::default();
        let chain = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))],
        );
        let e = chain.per_packet_energy(&params, &topo);
        // Three transmissions at 100 m plus at least three receptions.
        assert!(e > 3.0 * params.tx(100.0));
    }

    #[test]
    fn bottleneck_cost_is_the_longest_tree_link() {
        let topo = topo();
        let chain = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))],
        );
        assert_eq!(chain.bottleneck_cost(&topo), 100.0);
        let direct = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(0))],
        );
        assert_eq!(direct.bottleneck_cost(&topo), 240.0, "the 0-3 chord dominates");
        assert!(chain.bottleneck_cost(&topo) < direct.bottleneck_cost(&topo));
    }

    #[test]
    fn stale_edges_surface_as_none() {
        let topo = topo();
        // Parent pointer 2 -> 0 is not an edge of the topology.
        let t = MulticastTree::new(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(0)), Some(NodeId(2))],
        );
        let stale: Vec<_> = t.edges(&topo).filter(|(_, _, d)| d.is_none()).collect();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].1, NodeId(2));
    }
}
