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
//!   `n` nodes. At a non-zero epoch a uniform-grid [`SpatialIndex`] (cell side =
//!   maximum radio range) answers them. The index copies the positions into cell order,
//!   so a query reads only the contiguous runs of the cells overlapping its disc.
//!
//! **Reuse while the fleet holds still.** The first grid query of an epoch checks the
//! index's own copy of the positions against the fresh ones, bit for bit. The index is
//! rebuilt only when some node moved, and is otherwise kept across any number of epoch
//! boundaries. Once it has stood across one boundary, each sender is answered from a
//! *candidate list*: its first query fills the list with one maximum-range disc query,
//! and later queries filter the list with the same `distance² ≤ r²` predicate over the
//! same positions, so ranges below the maximum get exactly the disc query's answer. A
//! rebuild discards every list at once. A fleet that moves every epoch rebuilds every
//! epoch and never fills a list; a still one stops querying the grid once each sender
//! has been heard. The check runs once per epoch, so the zero-epoch scan and the
//! position reads pay nothing for it.
//!
//! Every method filters without a branch per candidate and drops the sender in the same
//! pass. Link blackouts are applied after the query, per receiver, and only while one
//! may still be active: the medium remembers the latest blackout horizon of any node.
//!
//! **Determinism.** Every method applies the same `distance² ≤ r²` predicate to the
//! same cached positions and returns receivers in ascending [`NodeId`] order, so
//! per-receiver randomness (channel loss draws) is drawn in the same order either way.
//! The position epoch *does* change physics for a moving fleet (positions quantise to
//! epoch starts), so it is a fidelity/performance knob, not a free optimisation.

use crate::geometry::Vec2;
use crate::mobility::BoxedMobility;
use crate::node::NodeId;
use crate::spatial::{push_within, SpatialIndex};
use serde::{Deserialize, Serialize};
use ssmcast_dessim::{SimDuration, SimTime};

/// Candidate-list budget: the lists of a still fleet hold at most this many ids per node
/// (plus one list). Typical densities need far fewer (about 13 in `perpetual_harvest`).
const LIST_IDS_PER_NODE: usize = 64;

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
    /// Epoch start the index was last built at. A query at a later epoch finds a fleet
    /// that held still across an epoch boundary and answers from candidate lists.
    index_at: SimTime,
    /// Epoch start the index was last checked against the cached positions, if ever.
    index_checked_at: Option<SimTime>,
    /// Per sender, the `start..end` of its candidate list in `list_ids` (`None` until
    /// its first list query). Empty while no list was filled since the last build.
    lists: Vec<Option<(u32, u32)>>,
    /// Every filled candidate list, back to back: each is the sender's maximum-range
    /// disc over the current index, ascending.
    list_ids: Vec<NodeId>,
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
            index_at: SimTime::ZERO,
            index_checked_at: None,
            lists: Vec::new(),
            list_ids: Vec::new(),
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

    /// Once per epoch, rebuild the index unless it holds exactly the positions of epoch
    /// `te` (which are fresh); a rebuild discards every candidate list.
    fn ensure_index(&mut self, te: SimTime) {
        if self.index_checked_at == Some(te) {
            return;
        }
        if !self.index.holds(&self.positions) {
            self.index.rebuild(&self.positions, self.cell_size);
            self.index_at = te;
            self.lists.clear();
            self.list_ids.clear();
        }
        self.index_checked_at = Some(te);
    }

    /// `sender`'s receivers within `range` (at most the cell size) from its candidate
    /// list, filling the list with one maximum-range disc query first if needed.
    fn receivers_from_list(&mut self, sender: NodeId, range: f64, out: &mut Vec<NodeId>) {
        let (n, i) = (self.positions.len(), sender.index());
        let center = self.positions[i];
        if self.lists.is_empty() {
            self.lists.resize(n, None);
        }
        // Lists stop one list past the budget, so however dense the fleet their memory
        // stays O(n) and every span fits a `u32`; later senders are answered directly.
        let budget = (LIST_IDS_PER_NODE * n).min(u32::MAX as usize - n);
        let (start, end) = match self.lists[i] {
            Some(span) => span,
            None if self.list_ids.len() <= budget => {
                self.index.query_disc(center, self.cell_size, Some(sender), out);
                let start = self.list_ids.len() as u32;
                self.list_ids.extend_from_slice(out);
                let span = (start, self.list_ids.len() as u32);
                self.lists[i] = Some(span);
                span
            }
            None => return self.index.query_disc(center, range, Some(sender), out),
        };
        out.clear();
        let candidates = &self.list_ids[start as usize..end as usize];
        let positions = &self.positions;
        let pairs = candidates.iter().map(|&id| (id.0, &positions[id.index()]));
        push_within(pairs, center, range * range, Some(sender), out);
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

    /// Every node other than `sender` within `range` metres of `sender`'s position at
    /// (the epoch of) `t`, in ascending node-id order. Nodes in a link blackout at `t`
    /// are excluded.
    pub fn receivers_within(
        &mut self,
        sender: NodeId,
        range: f64,
        t: SimTime,
        out: &mut Vec<NodeId>,
    ) {
        let te = self.epoch_start(t);
        self.refresh_all(te);
        let center = self.positions[sender.index()];
        // A zero-epoch index would be rebuilt per timestamp for (typically) a single
        // query, which costs more than the scan it replaces.
        if self.config.position_epoch.is_zero() {
            out.clear();
            let pairs = (0..self.positions.len() as u32).zip(&self.positions);
            push_within(pairs, center, range * range, Some(sender), out);
        } else {
            self.ensure_index(te);
            // A list holds the maximum-range disc, so it serves any range up to the
            // cell size. Only a fleet that held still since an earlier epoch fills one.
            if self.index_at < te && (0.0..=self.cell_size).contains(&range) {
                self.receivers_from_list(sender, range, out);
            } else {
                self.index.query_disc(center, range, Some(sender), out);
            }
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
    use crate::mobility::{Mobility, RandomWaypoint, Stationary, WaypointConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
                        medium.receivers_within(sender, range, t, &mut out);
                        let mut want = scan(&positions, sender, center, range);
                        want.retain(|id| !(active && dark.contains(id)));
                        assert_eq!(out, want, "epoch={epoch:?} t={secs} {sender:?} r={range}");
                    }
                }
            }
        }
    }

    #[test]
    fn blackouts_end_at_their_own_horizons_and_none_outlives_the_latest() {
        let mut medium = RadioMedium::new(waypoint_fleet(6), MediumConfig::default(), 250.0);
        let (a, b) = (NodeId(1), NodeId(4));
        let (two, five) = (SimTime::from_secs(2), SimTime::from_secs(5));
        assert!((0..6).all(|n| !medium.is_blacked_out(NodeId(n), SimTime::ZERO)));
        medium.set_blackout(a, two);
        medium.set_blackout(b, five);
        let just_before = |t: SimTime| SimTime::from_nanos(t.as_nanos() - 1);
        assert!(medium.is_blacked_out(a, SimTime::ZERO));
        assert!(medium.is_blacked_out(a, just_before(two)));
        assert!(!medium.is_blacked_out(a, two));
        assert!(!medium.is_blacked_out(a, SimTime::from_secs(3)));
        for t in [SimTime::ZERO, two, SimTime::from_secs(3), just_before(five)] {
            assert!(medium.is_blacked_out(b, t), "B is dark at {t:?}");
            assert!(!medium.is_blacked_out(NodeId(0), t), "node 0 was never dark");
        }
        for t in [five, SimTime::from_secs(6), SimTime::from_secs(1_000)] {
            assert!((0..6).all(|n| !medium.is_blacked_out(NodeId(n), t)), "all lit at {t:?}");
        }
    }

    /// A node that sits at `home` until `jump_at`, then at `away`.
    struct Jumper {
        home: Vec2,
        away: Vec2,
        jump_at: SimTime,
    }

    impl Mobility for Jumper {
        fn position_at(&mut self, t: SimTime) -> Vec2 {
            if t < self.jump_at {
                self.home
            } else {
                self.away
            }
        }
    }

    /// 40 still nodes on a 600 m square plus node 40, which jumps across it at 1.5 s.
    fn jumping_fleet() -> Vec<BoxedMobility> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut fleet: Vec<BoxedMobility> = (0..40)
            .map(|_| {
                let p = Vec2::new(rng.gen_range(0.0..600.0), rng.gen_range(0.0..600.0));
                Box::new(Stationary::new(p)) as BoxedMobility
            })
            .collect();
        fleet.push(Box::new(Jumper {
            home: Vec2::new(20.0, 30.0),
            away: Vec2::new(580.0, 560.0),
            jump_at: SimTime::from_secs_f64(1.5),
        }));
        fleet
    }

    #[test]
    fn candidate_lists_match_a_scan_oracle_across_holds_and_a_jump() {
        let cfg = MediumConfig::default().with_epoch(SimDuration::from_millis(250));
        let mut medium = RadioMedium::new(jumping_fleet(), cfg, 250.0);
        let mut oracle = jumping_fleet();
        let jumper = NodeId(40);
        let dark = [NodeId(3), jumper];
        let dark_until = SimTime::from_secs_f64(2.3);
        let mut out = Vec::new();
        let mut listed = 0;
        for secs in [0.1, 0.3, 0.4, 0.6, 1.1, 1.4, 1.7, 1.8, 2.1, 2.4, 2.9, 3.6] {
            let t = SimTime::from_secs_f64(secs);
            if secs == 1.1 {
                // Dark across the last held epoch, the jump and the second hold's start.
                for n in dark {
                    medium.set_blackout(n, dark_until);
                }
            }
            let te = SimTime::from_nanos(t.as_nanos() / 250_000_000 * 250_000_000);
            let positions: Vec<Vec2> = oracle.iter_mut().map(|m| m.position_at(te)).collect();
            // A lazy read refreshes the jumper before the query's full refresh.
            assert_eq!(medium.position_of(jumper, t), positions[jumper.index()]);
            let active = secs >= 1.1 && t < dark_until;
            for sender in [NodeId(0), NodeId(3), NodeId(17), jumper] {
                for range in [0.0, 90.0, 180.0, 250.0, 900.0] {
                    medium.receivers_within(sender, range, t, &mut out);
                    let center = positions[sender.index()];
                    let mut want = scan(&positions, sender, center, range);
                    want.retain(|id| !(active && dark.contains(id)));
                    assert_eq!(out, want, "t={secs} {sender:?} r={range}");
                }
            }
            listed += usize::from(!medium.lists.is_empty());
            // The jump rebuilds the index at 1.5 s; the fleet is still before and after.
            let built_at = if secs < 1.5 { 0.0 } else { 1.5 };
            assert_eq!(medium.index_at, SimTime::from_secs_f64(built_at), "t={secs}");
        }
        // Lists served every query of both holds after their first epoch.
        assert_eq!(listed, 10);
    }

    #[test]
    fn a_dense_still_fleet_stops_filling_lists_at_the_budget() {
        // 200 nodes on a 100 m square all hear each other: 199 ids a list, so the
        // budget of 64 ids a node is spent after 65 senders.
        let mut rng = StdRng::seed_from_u64(3);
        let fleet: Vec<BoxedMobility> = (0..200)
            .map(|_| {
                let p = Vec2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                Box::new(Stationary::new(p)) as BoxedMobility
            })
            .collect();
        let cfg = MediumConfig::default().with_epoch(SimDuration::from_millis(250));
        let mut medium = RadioMedium::new(fleet, cfg, 250.0);
        let mut out = Vec::new();
        for secs in [0.1, 0.3, 0.6] {
            let t = SimTime::from_secs_f64(secs);
            let positions = medium.positions(t).to_vec();
            for sender in (0..200).map(NodeId) {
                for range in [40.0, 250.0] {
                    medium.receivers_within(sender, range, t, &mut out);
                    let want = scan(&positions, sender, positions[sender.index()], range);
                    assert_eq!(out, want, "t={secs} {sender:?} r={range}");
                }
            }
        }
        assert_eq!(medium.lists.iter().flatten().count(), 65);
        assert_eq!(medium.list_ids.len(), 65 * 199);
    }
}
