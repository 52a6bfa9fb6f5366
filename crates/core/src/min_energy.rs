//! Minimum-energy multicast tree construction (the BIP greedy of Wieselthier et al.,
//! analysed for MANET multicast by Han et al.).
//!
//! The *broadcast advantage*: a node already transmitting at power `tx(r)` reaches every
//! neighbour within `r` for free, so attaching one more child at distance `d > r` costs
//! only the increment `tx(d) − tx(r)` — not a fresh transmission. The Broadcast
//! Incremental Power (BIP) greedy grows a source-rooted tree one node at a time, always
//! attaching the uncovered node with the cheapest *incremental* transmit power, pricing
//! parents that already transmit at their current farthest-child radius.
//!
//! This is a centralized, topology-snapshot baseline — the "how cheap could multicast
//! possibly be" yardstick the self-stabilizing protocols are measured against. It is not
//! itself self-stabilizing: the driver must rebuild the tree when the topology changes.

use crate::graph::MulticastTopology;
use crate::metric::MetricParams;
use crate::tree::MulticastTree;
use ssmcast_manet::NodeId;

/// Grow a minimum-energy multicast tree with the BIP greedy.
///
/// Starting from the source, repeatedly attach the cheapest uncovered node, where the
/// price of attaching `v` under an in-tree parent `u` currently transmitting to radius
/// `r_u` is the incremental power `params.tx(d(u,v)) − params.tx(r_u)` (a parent with no
/// children yet pays the full `params.tx(d)`). Nodes unreachable from the source stay
/// parentless, so the result spans exactly the source's connected component.
///
/// The returned tree is *unpruned* — every covered node has a parent. Forwarding-set
/// pruning ([`MulticastTree::forwarding_set`]) drops branches with no group members
/// downstream, exactly as for the protocol-built trees.
pub fn min_energy_tree(topo: &MulticastTopology, params: &MetricParams) -> MulticastTree {
    let n = topo.len();
    let source = topo.source();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut in_tree = vec![false; n];
    // Radius each in-tree node currently transmits at (its farthest child so far).
    let mut radius = vec![0.0f64; n];
    if n == 0 {
        return MulticastTree::new(source, parent);
    }
    in_tree[source.index()] = true;
    for _ in 1..n {
        // The cheapest uncovered attachment. Ties break toward the lower (parent, child)
        // pair so the greedy is deterministic across platforms.
        let mut best: Option<(f64, NodeId, NodeId, f64)> = None;
        for u in topo.nodes().filter(|&u| in_tree[u.index()]) {
            for &(v, d) in topo.neighbors(u) {
                if in_tree[v.index()] {
                    continue;
                }
                let inc = params.tx(d.max(radius[u.index()])) - params.tx(radius[u.index()]);
                let better = match best {
                    None => true,
                    Some((bc, bu, bv, _)) => inc < bc || (inc == bc && (u, v) < (bu, bv)),
                };
                if better {
                    best = Some((inc, u, v, d));
                }
            }
        }
        let Some((_, u, v, d)) = best else {
            break; // the rest of the graph is unreachable from the source
        };
        parent[v.index()] = Some(u);
        in_tree[v.index()] = true;
        radius[u.index()] = radius[u.index()].max(d);
    }
    MulticastTree::new(source, parent)
}

/// Total transmit power of `tree`: each node with children pays one transmission to its
/// farthest child in `topo` (the broadcast advantage — siblings ride along for free).
/// Stale edges (endpoints no longer adjacent) contribute nothing.
pub fn tree_tx_power(tree: &MulticastTree, topo: &MulticastTopology, params: &MetricParams) -> f64 {
    topo.nodes()
        .map(|v| {
            let far = tree.child_distances(topo, v).into_iter().fold(0.0f64, f64::max);
            if far > 0.0 {
                params.tx(far)
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0 - 1 - 2 - 3, plus a long chord 0 - 3.
    fn chord_topo() -> MulticastTopology {
        MulticastTopology::from_edges(
            4,
            &[(0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0), (0, 3, 240.0)],
            NodeId(0),
            vec![true, false, false, true],
        )
    }

    #[test]
    fn bip_prefers_short_relays_over_one_long_link() {
        let topo = chord_topo();
        let params = MetricParams::default();
        let tree = min_energy_tree(&topo, &params);
        assert!(tree.is_spanning());
        // With a quadratic-plus path-loss exponent, three 100 m hops beat one 240 m
        // blast: node 3 must hang off the relay chain, not the chord.
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(tree.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn broadcast_advantage_reuses_a_paid_transmission() {
        // Source with two neighbours at 100 m and 120 m: covering the far one at
        // tx(120) makes the near one's incremental price tx(100)−... moot — but more
        // to the point, attaching BOTH under the source must cost tx(120), not
        // tx(100) + tx(120).
        let topo = MulticastTopology::from_edges(
            3,
            &[(0, 1, 100.0), (0, 2, 120.0), (1, 2, 180.0)],
            NodeId(0),
            vec![true, true, true],
        );
        let params = MetricParams::default();
        let tree = min_energy_tree(&topo, &params);
        assert!(tree.is_spanning());
        assert_eq!(tree.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(0)), "incremental price beats a relay");
        let power = tree_tx_power(&tree, &topo, &params);
        assert!(
            (power - params.tx(120.0)).abs() < 1e-12,
            "one transmission at the farthest child covers both: {power}"
        );
    }

    #[test]
    fn tree_power_never_exceeds_per_link_unicast_sum() {
        let topo = chord_topo();
        let params = MetricParams::default();
        let tree = min_energy_tree(&topo, &params);
        let unicast: f64 = tree.edges(&topo).filter_map(|(_, _, d)| d).map(|d| params.tx(d)).sum();
        let broadcast = tree_tx_power(&tree, &topo, &params);
        assert!(broadcast <= unicast + 1e-12, "{broadcast} <= {unicast}");
    }

    #[test]
    fn unreachable_nodes_stay_parentless() {
        let topo = MulticastTopology::from_edges(
            4,
            &[(0, 1, 100.0), (2, 3, 100.0)],
            NodeId(0),
            vec![true, true, true, true],
        );
        let tree = min_energy_tree(&topo, &MetricParams::default());
        assert!(!tree.is_spanning());
        assert_eq!(tree.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(tree.parent(NodeId(2)), None);
        assert_eq!(tree.parent(NodeId(3)), None);
    }

    #[test]
    fn empty_and_singleton_graphs_are_fine() {
        let solo = MulticastTopology::from_edges(1, &[], NodeId(0), vec![true]);
        let tree = min_energy_tree(&solo, &MetricParams::default());
        assert!(tree.is_spanning());
        assert_eq!(tree.parent(NodeId(0)), None);
    }
}
