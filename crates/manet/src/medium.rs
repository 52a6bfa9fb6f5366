//! The radio medium: epoch-cached node positions plus indexed neighbour queries.
//!
//! Before this layer existed, every broadcast in the runtime linearly scanned all `n`
//! nodes and re-queried each node's mobility model per position read — O(n²) work per
//! flooded packet. [`RadioMedium`] centralises both concerns:
//!
//! * a **position cache** that evaluates each mobility model at most once per
//!   *position epoch* (a configurable quantum; [`SimDuration::ZERO`] means exact
//!   per-event positions), and
//! * a uniform-grid [`SpatialIndex`] (cell side = maximum radio range) answering
//!   "who is within `r` of this point?" by inspecting only the overlapping cells.
//!
//! **Determinism guarantee.** The grid and brute-force query modes share the cached
//! position buffer and the `distance² ≤ r²` predicate, and both return receivers in
//! ascending [`NodeId`] order, so per-receiver randomness (channel loss draws) is
//! byte-identical across modes: for the same seeds, a run with
//! [`NeighborQuery::Grid`] produces exactly the same [`crate::SimReport`] as one with
//! [`NeighborQuery::BruteForce`]. The position epoch *does* change physics (positions
//! quantise to epoch starts), so it is a fidelity/performance knob, not a free
//! optimisation — but any two runs with the same epoch agree regardless of query mode.

use crate::geometry::Vec2;
use crate::mobility::BoxedMobility;
use crate::node::NodeId;
use crate::spatial::SpatialIndex;
use serde::{Deserialize, Serialize};
use ssmcast_dessim::{SimDuration, SimTime};

/// Which implementation answers range queries on the medium.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum NeighborQuery {
    /// Uniform-grid spatial index: O(k) candidates per query (the default).
    ///
    /// The index pays off when one build serves many queries, i.e. when positions are
    /// cached per epoch. With a [`SimDuration::ZERO`] epoch every distinct event
    /// timestamp would rebuild the grid for (typically) a single broadcast, which costs
    /// more than the scan it replaces — so the medium silently answers zero-epoch
    /// queries with the linear scan. Results are identical either way.
    Grid,
    /// Linear scan over all nodes: O(n) per query. Kept as the reference
    /// implementation; results are byte-identical to [`NeighborQuery::Grid`].
    BruteForce,
}

/// Configuration of the radio medium layer.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct MediumConfig {
    /// Position-cache quantum: all mobility models are advanced once per epoch and
    /// every position read inside an epoch sees the epoch-start positions.
    /// [`SimDuration::ZERO`] (the default) re-evaluates positions at every distinct
    /// event timestamp — exact physics, identical to querying the mobility models
    /// directly.
    pub position_epoch: SimDuration,
    /// Range-query implementation.
    pub neighbor_query: NeighborQuery,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig { position_epoch: SimDuration::ZERO, neighbor_query: NeighborQuery::Grid }
    }
}

impl MediumConfig {
    /// Exact positions, grid-indexed queries (the default).
    pub fn grid() -> Self {
        Self::default()
    }

    /// Exact positions, brute-force queries (the pre-refactor behaviour).
    pub fn brute_force() -> Self {
        MediumConfig { neighbor_query: NeighborQuery::BruteForce, ..Self::default() }
    }

    /// Same configuration with positions cached per `epoch`.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.position_epoch = epoch;
        self
    }
}

/// Epoch-cached positions plus a spatial index over them.
///
/// Owns the per-node mobility models. All position reads in the runtime flow through
/// this type, so a timestamp's positions are computed once and shared by the protocol
/// context, broadcast propagation and topology snapshots.
pub struct RadioMedium {
    mobility: Vec<BoxedMobility>,
    config: MediumConfig,
    /// Grid cell side: the maximum radio range, so any clamped transmission disc
    /// overlaps at most a 3×3 block of cells.
    cell_size: f64,
    positions: Vec<Vec2>,
    /// Epoch start each node's cached position was computed at.
    fresh_at: Vec<SimTime>,
    /// Epoch start of the last full refresh, if any.
    all_fresh_at: Option<SimTime>,
    index: SpatialIndex,
    index_at: Option<SimTime>,
    /// Per-node link-blackout horizon: until this instant the node neither delivers nor
    /// receives anything ([`SimTime::ZERO`] = no blackout). Driven by the fault layer.
    blackout_until: Vec<SimTime>,
}

impl RadioMedium {
    /// Build a medium over one mobility process per node. `cell_size` is normally the
    /// maximum radio range. All positions are primed at time zero.
    pub fn new(mut mobility: Vec<BoxedMobility>, config: MediumConfig, cell_size: f64) -> Self {
        let positions: Vec<Vec2> =
            mobility.iter_mut().map(|m| m.position_at(SimTime::ZERO)).collect();
        let fresh_at = vec![SimTime::ZERO; mobility.len()];
        let blackout_until = vec![SimTime::ZERO; mobility.len()];
        RadioMedium {
            mobility,
            config,
            cell_size,
            positions,
            fresh_at,
            all_fresh_at: Some(SimTime::ZERO),
            index: SpatialIndex::default(),
            index_at: None,
            blackout_until,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.mobility.len()
    }

    /// True if the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.mobility.is_empty()
    }

    /// The active configuration.
    pub fn config(&self) -> MediumConfig {
        self.config
    }

    /// Snap a timestamp to the start of its position epoch.
    fn epoch_start(&self, t: SimTime) -> SimTime {
        match t.as_nanos().checked_div(self.config.position_epoch.as_nanos()) {
            Some(epochs) => SimTime::from_nanos(epochs * self.config.position_epoch.as_nanos()),
            None => t,
        }
    }

    /// Position of one node at (the epoch of) `t`. Lazy: only this node's mobility
    /// model is advanced.
    pub fn position_of(&mut self, n: NodeId, t: SimTime) -> Vec2 {
        let te = self.epoch_start(t);
        let i = n.index();
        if self.fresh_at[i] != te {
            self.positions[i] = self.mobility[i].position_at(te);
            self.fresh_at[i] = te;
        }
        self.positions[i]
    }

    /// Refresh every node's cached position to the epoch of `t` and return the buffer.
    pub fn positions(&mut self, t: SimTime) -> &[Vec2] {
        let te = self.epoch_start(t);
        self.refresh_all(te);
        &self.positions
    }

    fn refresh_all(&mut self, te: SimTime) {
        if self.all_fresh_at == Some(te) {
            return;
        }
        for i in 0..self.mobility.len() {
            if self.fresh_at[i] != te {
                self.positions[i] = self.mobility[i].position_at(te);
                self.fresh_at[i] = te;
            }
        }
        self.all_fresh_at = Some(te);
    }

    fn ensure_index(&mut self, te: SimTime) {
        if self.index_at != Some(te) {
            self.index.rebuild(&self.positions, self.cell_size);
            self.index_at = Some(te);
        }
    }

    /// Black out node `n`'s links until `until`: while the blackout lasts the node is
    /// removed from every receiver set and [`Self::is_blacked_out`] reports true (the
    /// runtime uses that to suppress its transmissions too). Extending an existing
    /// blackout keeps the later horizon.
    pub fn set_blackout(&mut self, n: NodeId, until: SimTime) {
        let slot = &mut self.blackout_until[n.index()];
        *slot = (*slot).max(until);
    }

    /// True while node `n`'s links are blacked out at time `t`.
    pub fn is_blacked_out(&self, n: NodeId, t: SimTime) -> bool {
        t < self.blackout_until[n.index()]
    }

    /// Every node other than `sender` within `range` metres of `center`, in ascending
    /// node-id order. Nodes in a link blackout at `t` are excluded. `center` must be
    /// `sender`'s position at `t` (threaded through from the caller rather than
    /// re-queried).
    pub fn receivers_within(
        &mut self,
        sender: NodeId,
        center: Vec2,
        range: f64,
        t: SimTime,
        out: &mut Vec<NodeId>,
    ) {
        let te = self.epoch_start(t);
        self.refresh_all(te);
        // A zero-epoch grid would rebuild the index per timestamp for a single query;
        // the scan is cheaper and (by construction) returns the identical set.
        let use_index = self.config.neighbor_query == NeighborQuery::Grid
            && !self.config.position_epoch.is_zero();
        if use_index {
            self.ensure_index(te);
            self.index.query_disc(center, range, &self.positions, out);
            out.retain(|&id| id != sender && !self.is_blacked_out(id, t));
        } else {
            out.clear();
            let r2 = range * range;
            for i in 0..self.positions.len() {
                let id = NodeId(i as u32);
                if id != sender
                    && !self.is_blacked_out(id, t)
                    && self.positions[i].distance_sq(&center) <= r2
                {
                    out.push(id);
                }
            }
        }
    }

    /// Greatest distance from `center` to any node in `ids` at (the epoch of) `t` —
    /// the minimum power-control range that covers them all (0 for an empty set). Used
    /// by distance-based TX power control to price a broadcast by its farthest actual
    /// receiver instead of the requested range.
    pub fn farthest_distance(&mut self, center: Vec2, ids: &[NodeId], t: SimTime) -> f64 {
        ids.iter().map(|&id| self.position_of(id, t).distance(&center)).fold(0.0, f64::max)
    }
}

impl std::fmt::Debug for RadioMedium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadioMedium")
            .field("nodes", &self.mobility.len())
            .field("config", &self.config)
            .field("cell_size", &self.cell_size)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{RandomWaypoint, WaypointConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn waypoint_fleet(n: u64) -> Vec<BoxedMobility> {
        (0..n)
            .map(|i| {
                Box::new(RandomWaypoint::with_random_start(
                    WaypointConfig::paper_default(10.0),
                    StdRng::seed_from_u64(100 + i),
                )) as BoxedMobility
            })
            .collect()
    }

    /// Reference positions for the same seeds, queried directly.
    fn direct_positions(n: u64, t: SimTime) -> Vec<Vec2> {
        waypoint_fleet(n).iter_mut().map(|m| m.position_at(t)).collect()
    }

    #[test]
    fn zero_epoch_positions_are_exact() {
        let mut medium = RadioMedium::new(waypoint_fleet(8), MediumConfig::default(), 250.0);
        for secs in [0u64, 3, 17, 18, 90] {
            let t = SimTime::from_secs(secs);
            assert_eq!(medium.positions(t), direct_positions(8, t).as_slice(), "t={secs}");
        }
    }

    #[test]
    fn epoch_quantises_positions_to_epoch_starts() {
        let cfg = MediumConfig::default().with_epoch(SimDuration::from_secs(10));
        let mut medium = RadioMedium::new(waypoint_fleet(5), cfg, 250.0);
        let in_epoch = medium.positions(SimTime::from_secs_f64(17.3)).to_vec();
        assert_eq!(in_epoch, direct_positions(5, SimTime::from_secs(10)), "snap to epoch start");
        // Any read inside the same epoch sees identical positions.
        assert_eq!(medium.positions(SimTime::from_secs_f64(19.9)), in_epoch.as_slice());
        // The next epoch advances.
        assert_eq!(
            medium.positions(SimTime::from_secs(20)),
            direct_positions(5, SimTime::from_secs(20)).as_slice()
        );
    }

    #[test]
    fn lazy_and_bulk_reads_agree() {
        let cfg = MediumConfig::default().with_epoch(SimDuration::from_millis(500));
        let mut a = RadioMedium::new(waypoint_fleet(6), cfg, 250.0);
        let mut b = RadioMedium::new(waypoint_fleet(6), cfg, 250.0);
        let t = SimTime::from_secs_f64(42.42);
        // `a` reads one node lazily first, then the full buffer; `b` goes straight to
        // the full buffer. Both must agree.
        let single = a.position_of(NodeId(3), t);
        assert_eq!(a.positions(t)[3], single);
        assert_eq!(a.positions(t), b.positions(t));
    }

    #[test]
    fn grid_and_brute_force_receivers_are_identical() {
        // A non-zero epoch so the grid path actually engages the spatial index (at
        // epoch zero both modes share the scan path by design); ZERO is covered too.
        for epoch in [SimDuration::ZERO, SimDuration::from_millis(500)] {
            let grid_cfg = MediumConfig::grid().with_epoch(epoch);
            let brute_cfg = MediumConfig::brute_force().with_epoch(epoch);
            let mut grid = RadioMedium::new(waypoint_fleet(40), grid_cfg, 250.0);
            let mut brute = RadioMedium::new(waypoint_fleet(40), brute_cfg, 250.0);
            let mut out_g = Vec::new();
            let mut out_b = Vec::new();
            for secs in [0u64, 5, 31, 60] {
                let t = SimTime::from_secs(secs);
                for sender in [NodeId(0), NodeId(7), NodeId(39)] {
                    let center = grid.position_of(sender, t);
                    assert_eq!(center, brute.position_of(sender, t));
                    for range in [50.0, 150.0, 250.0] {
                        grid.receivers_within(sender, center, range, t, &mut out_g);
                        brute.receivers_within(sender, center, range, t, &mut out_b);
                        assert_eq!(out_g, out_b, "t={secs} sender={sender:?} range={range}");
                        assert!(!out_g.contains(&sender), "sender excluded");
                        assert!(out_g.windows(2).all(|w| w[0] < w[1]), "sorted by node id");
                    }
                }
            }
        }
    }
}
