//! The radio medium: epoch-cached node positions plus receiver queries over them.
//!
//! [`RadioMedium`] owns every node's mobility model and answers the runtime's questions
//! about space:
//!
//! * a **position cache** evaluates each mobility model at most once per *position
//!   epoch* (a configurable quantum; [`SimDuration::ZERO`] means exact per-event
//!   positions), and
//! * **receiver queries** pick their method from the epoch. At a zero epoch a distinct
//!   timestamp's positions typically serve a single broadcast, so the medium scans all
//!   `n` nodes. At a non-zero epoch one uniform-grid [`SpatialIndex`] build (cell side =
//!   maximum radio range) serves every query of the epoch. The index copies the epoch's
//!   positions into cell order, so a query reads only the contiguous runs of the cells
//!   overlapping its disc.
//!
//! Both methods filter without a branch per candidate and drop the sender in the same
//! pass. Link blackouts are checked per receiver only while one may still be active: the
//! medium remembers the latest blackout horizon of any node.
//!
//! **Determinism.** Both methods apply the same `distance² ≤ r²` predicate to the same
//! cached positions and return receivers in ascending [`NodeId`] order, so per-receiver
//! randomness (channel loss draws) is drawn in the same order either way. The position
//! epoch *does* change physics (positions quantise to epoch starts), so it is a
//! fidelity/performance knob, not a free optimisation.

use crate::geometry::Vec2;
use crate::mobility::BoxedMobility;
use crate::node::NodeId;
use crate::spatial::{push_within, SpatialIndex};
use serde::{Deserialize, Serialize};
use ssmcast_dessim::{SimDuration, SimTime};

/// Configuration of the radio medium layer.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct MediumConfig {
    /// Position-cache quantum: all mobility models are advanced once per epoch and
    /// every position read inside an epoch sees the epoch-start positions.
    /// [`SimDuration::ZERO`] (the default) re-evaluates positions at every distinct
    /// event timestamp — exact physics, identical to querying the mobility models
    /// directly. A non-zero epoch also switches receiver queries to the grid index.
    pub position_epoch: SimDuration,
}

impl MediumConfig {
    /// Equal to [`Self::default`]: exact positions and the linear scan; only
    /// [`Self::with_epoch`] engages the grid index. Kept only because the benchmark
    /// workloads call it; it goes with the next change to the benchmark definition.
    pub fn grid() -> Self {
        Self::default()
    }

    /// Same configuration with positions cached per `epoch`.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.position_epoch = epoch;
        self
    }
}

/// Epoch-cached positions plus a spatial index built from them.
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
    /// The latest of all `blackout_until` horizons: from this instant on no node is
    /// blacked out, so receiver queries skip the per-receiver check.
    blackout_max: SimTime,
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
            blackout_max: SimTime::ZERO,
        }
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
        self.blackout_max = self.blackout_max.max(until);
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
        // A zero-epoch index would be rebuilt per timestamp for (typically) a single
        // query, which costs more than the scan it replaces.
        if self.config.position_epoch.is_zero() {
            out.clear();
            let ids = 0..self.positions.len() as u32;
            push_within(ids, &self.positions, center, range * range, Some(sender), out);
        } else {
            self.ensure_index(te);
            self.index.query_disc(center, range, Some(sender), out);
        }
        if t < self.blackout_max {
            out.retain(|&id| !self.is_blacked_out(id, t));
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

    /// The reference both query paths must match: every node other than `sender` within
    /// `range` of `center`, scanned in id order.
    fn scan(positions: &[Vec2], sender: NodeId, center: Vec2, range: f64) -> Vec<NodeId> {
        let r2 = range * range;
        (0..positions.len() as u32)
            .map(NodeId)
            .filter(|&id| id != sender && positions[id.index()].distance_sq(&center) <= r2)
            .collect()
    }

    #[test]
    fn receivers_match_a_scan_oracle_on_both_paths_with_past_and_active_blackouts() {
        let mut out = Vec::new();
        for epoch in [SimDuration::ZERO, SimDuration::from_millis(250)] {
            let cfg = MediumConfig::default().with_epoch(epoch);
            let mut medium = RadioMedium::new(waypoint_fleet(60), cfg, 250.0);
            // Blackouts that end before the first query instant, so only the horizon
            // check runs until the active ones below are set.
            for n in [2u32, 11, 30] {
                medium.set_blackout(NodeId(n), SimTime::from_secs(1));
            }
            let mut dark = Vec::new();
            for (k, secs) in [3.0, 7.25, 12.5, 12.75, 40.0].into_iter().enumerate() {
                let t = SimTime::from_secs_f64(secs);
                let positions = medium.positions(t).to_vec();
                if k == 2 {
                    // From here on three nodes are dark until 13 s: two queries fall
                    // inside the blackout, and the later ones after it.
                    for n in [0u32, 5, 21] {
                        medium.set_blackout(NodeId(n), SimTime::from_secs(13));
                        dark.push(NodeId(n));
                    }
                }
                let active = t < SimTime::from_secs(13);
                for sender in [NodeId(0), NodeId(5), NodeId(17), NodeId(59)] {
                    let center = positions[sender.index()];
                    for range in [0.0, 120.0, 250.0, 2_000.0] {
                        medium.receivers_within(sender, center, range, t, &mut out);
                        let mut want = scan(&positions, sender, center, range);
                        want.retain(|id| !(active && dark.contains(id)));
                        assert_eq!(out, want, "epoch={epoch:?} t={secs} {sender:?} r={range}");
                    }
                }
            }
        }
    }
}
