//! Instantaneous topology snapshots.
//!
//! A snapshot freezes node positions at one instant and exposes the induced
//! unit-disc connectivity graph (two nodes are neighbours iff their distance is at most
//! the transmission range). The synchronous SS-SPST model in `ssmcast-core` runs directly
//! on snapshots; the event-driven runtime uses them for connectivity statistics.
//!
//! Neighbour queries run on the same uniform-grid [`SpatialIndex`] the event-driven
//! [`crate::medium::RadioMedium`] uses, so the synchronous model and the runtime share a
//! single neighbour-query path (and its exactness guarantees).

use crate::geometry::Vec2;
use crate::node::NodeId;
use crate::spatial::SpatialIndex;

/// A frozen view of node positions and the resulting neighbour graph. The default value
/// is the empty snapshot.
#[derive(Clone, Debug, Default)]
pub struct TopologySnapshot {
    positions: Vec<Vec2>,
    range_m: f64,
    index: SpatialIndex,
}

impl TopologySnapshot {
    /// Build a snapshot from node positions (indexed by [`NodeId::index`]) and a common
    /// transmission range.
    pub fn new(positions: Vec<Vec2>, range_m: f64) -> Self {
        let index = SpatialIndex::build(&positions, range_m);
        TopologySnapshot { positions, range_m, index }
    }

    /// Rebuild in place over new positions and range, reusing this snapshot's buffers.
    /// The result equals `TopologySnapshot::new(positions.to_vec(), range_m)`.
    pub fn rebuild(&mut self, positions: &[Vec2], range_m: f64) {
        self.positions.clear();
        self.positions.extend_from_slice(positions);
        self.range_m = range_m;
        self.index.rebuild(&self.positions, range_m);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The common transmission range.
    pub fn range(&self) -> f64 {
        self.range_m
    }

    /// Position of a node.
    pub fn position(&self, n: NodeId) -> Vec2 {
        self.positions[n.index()]
    }

    /// Distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance(&self.positions[b.index()])
    }

    /// True if `a` and `b` are within range of each other (and distinct).
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        a != b
            && self.positions[a.index()].distance_sq(&self.positions[b.index()])
                <= self.range_m * self.range_m
    }

    /// All neighbours of `n`, in node-id order (grid-indexed range query).
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.index.query_disc(self.positions[n.index()], self.range_m, Some(n), &mut out);
        out
    }

    /// Call `visit` once for every neighbour of `n`, the set [`Self::neighbors`]
    /// returns, in no particular order and without allocating.
    pub fn for_each_neighbor(&self, n: NodeId, visit: impl FnMut(NodeId)) {
        self.index.for_each_in_disc(self.positions[n.index()], self.range_m, Some(n), visit);
    }

    /// Degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        let mut degree = 0;
        self.for_each_neighbor(n, |_| degree += 1);
        degree
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// True if the whole graph is connected (trivially true for 0 or 1 nodes).
    pub fn is_connected(&self) -> bool {
        self.hop_distances(NodeId(0)).iter().all(Option::is_some)
    }

    /// Breadth-first set of nodes reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        let n = self.positions.len();
        if start.index() >= n {
            return Vec::new();
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        let mut out = Vec::new();
        while let Some(u) = queue.pop_front() {
            out.push(u);
            for v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        out
    }

    /// Minimum hop count from `start` to every node (`None` if unreachable).
    pub fn hop_distances(&self, start: NodeId) -> Vec<Option<u32>> {
        let n = self.positions.len();
        let mut dist = vec![None; n];
        if start.index() >= n {
            return dist;
        }
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = Some(0);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].unwrap();
            self.for_each_neighbor(u, |v| {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            });
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four nodes on a line, 100 m apart, with a 150 m range: a path graph.
    fn line() -> TopologySnapshot {
        let pos = (0..4).map(|i| Vec2::new(i as f64 * 100.0, 0.0)).collect();
        TopologySnapshot::new(pos, 150.0)
    }

    #[test]
    fn neighbors_follow_range() {
        let t = line();
        assert!(t.are_neighbors(NodeId(0), NodeId(1)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(2)));
        assert!(!t.are_neighbors(NodeId(1), NodeId(1)), "a node is not its own neighbour");
        assert_eq!(t.neighbors(NodeId(1)), vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.degree(NodeId(0)), 1);
    }

    #[test]
    fn connectivity_and_hops() {
        let t = line();
        assert!(t.is_connected());
        let d = t.hop_distances(NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let pos = vec![Vec2::new(0.0, 0.0), Vec2::new(1000.0, 0.0)];
        let t = TopologySnapshot::new(pos, 100.0);
        assert!(!t.is_connected());
        assert_eq!(t.hop_distances(NodeId(0))[1], None);
        assert_eq!(t.reachable_from(NodeId(0)), vec![NodeId(0)]);
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(TopologySnapshot::new(vec![], 100.0).is_connected());
        assert!(TopologySnapshot::new(vec![Vec2::ZERO], 100.0).is_connected());
    }

    #[test]
    fn indexed_neighbors_match_pairwise_predicate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let positions: Vec<Vec2> = (0..60)
            .map(|_| Vec2::new(rng.gen_range(0.0..750.0), rng.gen_range(0.0..750.0)))
            .collect();
        let t = TopologySnapshot::new(positions, 250.0);
        for n in t.nodes() {
            let brute: Vec<NodeId> = t.nodes().filter(|&m| t.are_neighbors(n, m)).collect();
            assert_eq!(t.neighbors(n), brute, "node {n:?}");
            let mut visited = Vec::new();
            t.for_each_neighbor(n, |m| visited.push(m));
            visited.sort_unstable();
            assert_eq!(visited, brute, "visitor at node {n:?}");
            assert_eq!(t.degree(n), brute.len());
        }
    }

    #[test]
    fn rebuilding_in_place_matches_a_fresh_snapshot() {
        let mut t = line();
        let moved: Vec<Vec2> = (0..6).map(|i| Vec2::new(i as f64 * 70.0, 20.0)).collect();
        t.rebuild(&moved, 100.0);
        let fresh = TopologySnapshot::new(moved.clone(), 100.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.range(), 100.0);
        for n in fresh.nodes() {
            assert_eq!(t.position(n), fresh.position(n));
            assert_eq!(t.neighbors(n), fresh.neighbors(n), "node {n:?}");
        }
        t.rebuild(&[], 100.0);
        assert!(t.is_empty() && t.is_connected());
    }
}
