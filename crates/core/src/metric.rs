//! The cost metrics of the SS-SPST family.
//!
//! The paper derives four metrics (Section 4):
//!
//! * **Hop** — the original SS-SPST: minimise hop count from the source.
//! * **TxLink (SS-SPST-T)** — assign each link its transmission energy and minimise the
//!   sum along the path (equation 1).
//! * **Farthest (SS-SPST-F)** — a node-based metric: a node pays the transmission energy
//!   needed to reach its *costliest* tree neighbour plus one reception per tree neighbour
//!   (equation 2). This exploits the wireless multicast advantage: one transmission covers
//!   all children.
//! * **EnergyAware (SS-SPST-E)** — the paper's contribution: the Farthest metric plus the
//!   *discard energy* wasted by non-group neighbours that overhear the transmission
//!   (equations 3 and 4).
//!
//! A fifth metric, **Bottleneck (SS-MST)**, runs the same guarded commands toward a
//! minimum-bottleneck spanning tree in the style of Blin, Potop-Butucaru, Rovedakis and
//! Tixeuil: a path costs its longest single link, `l(v) = max(l(u), |u, v|)`.
//!
//! During stabilization each node `v` estimates, for every candidate parent `u`, the
//! *overhead* `C(u, v)` that attaching `v` under `u` adds to the tree, and minimises the
//! accumulated overhead `l(u) + C(u, v)` along the path to the source (Section 5).

use serde::{Deserialize, Serialize};
use ssmcast_manet::EnergyModel;

/// Which cost metric an SS-SPST instance uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// Hop count (plain SS-SPST).
    Hop,
    /// Per-link transmission energy (SS-SPST-T).
    TxLink,
    /// Costliest-neighbour node energy (SS-SPST-F).
    Farthest,
    /// Costliest-neighbour node energy plus discard/overhearing energy (SS-SPST-E).
    EnergyAware,
    /// Longest link on the path to the source (SS-MST). Not one of the paper's four.
    Bottleneck,
}

impl MetricKind {
    /// The paper's four variants, in the order it introduces them.
    pub const ALL: [MetricKind; 4] =
        [MetricKind::Hop, MetricKind::TxLink, MetricKind::Farthest, MetricKind::EnergyAware];

    /// The protocol name used in the paper's figures.
    pub fn protocol_name(self) -> &'static str {
        match self {
            MetricKind::Hop => "SS-SPST",
            MetricKind::TxLink => "SS-SPST-T",
            MetricKind::Farthest => "SS-SPST-F",
            MetricKind::EnergyAware => "SS-SPST-E",
            MetricKind::Bottleneck => "SS-MST",
        }
    }

    /// True for the metrics that price energy (everything but hop count; the longest
    /// link sets the highest transmit power on a path). These trees forward data with
    /// power control.
    pub fn is_energy_based(self) -> bool {
        !matches!(self, MetricKind::Hop)
    }

    /// True when joining a parent always costs something (every metric but
    /// Bottleneck). Under a minimax cost a child can offer its own parent a path at the
    /// same cost, so the Bottleneck guarded command must never adopt a neighbour that
    /// claims this node as its parent; the additive metrics break such loops by
    /// counting up to the infinity bound.
    pub(crate) fn is_additive(self) -> bool {
        !matches!(self, MetricKind::Bottleneck)
    }

    /// `E_init`: a cost strictly greater than any legitimate path cost in a network of
    /// `n_nodes` whose longest usable link is `worst_link_m`.
    pub(crate) fn infinity_cost(
        self,
        params: &MetricParams,
        n_nodes: usize,
        worst_link_m: f64,
    ) -> f64 {
        let n = n_nodes.max(1) as f64;
        match self {
            MetricKind::Hop => n * n + 1.0,
            // A legitimate bottleneck is a single link length.
            MetricKind::Bottleneck => worst_link_m + 1.0,
            // Every node transmitting over the worst link plus everyone receiving it:
            // comfortably above any real tree cost.
            _ => n * (params.tx(worst_link_m) + n * params.rx()) + 1.0,
        }
    }

    /// True for the node-based metrics (F and E).
    pub fn is_node_based(self) -> bool {
        matches!(self, MetricKind::Farthest | MetricKind::EnergyAware)
    }
}

/// Parameters shared by every energy metric: the radio energy model and the data packet
/// size the tree will carry (costs are per data packet).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricParams {
    /// Radio energy model.
    pub energy: EnergyModel,
    /// Data packet size in bytes used to price transmissions.
    pub data_packet_bytes: u32,
}

impl Default for MetricParams {
    fn default() -> Self {
        MetricParams { energy: EnergyModel::default(), data_packet_bytes: 512 }
    }
}

impl MetricParams {
    /// Transmission energy (joules per data packet) to cover `distance_m`.
    pub fn tx(&self, distance_m: f64) -> f64 {
        self.energy.tx_energy(distance_m, self.data_packet_bytes)
    }

    /// Reception energy (joules per data packet); the paper's `E_rcv`.
    pub fn rx(&self) -> f64 {
        self.energy.rx_energy(self.data_packet_bytes)
    }
}

/// Everything a node needs to know about a candidate parent `u` to price joining it.
///
/// The synchronous model fills this in from global knowledge; the event-driven agent fills
/// it in from `u`'s beacons.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParentView {
    /// `u`'s advertised accumulated cost `l(u)`.
    pub cost: f64,
    /// `u`'s advertised hop count.
    pub hop: u32,
    /// Distance from `u` to each of its *current* children, excluding the evaluating node
    /// itself if it is already a child of `u`.
    pub child_distances: Vec<f64>,
    /// Distances from `u` to its non-group neighbours that are not its tree neighbours
    /// (potential overhearers). Only used by [`MetricKind::EnergyAware`].
    pub non_member_neighbor_distances: Vec<f64>,
}

impl ParentView {
    /// Distance to `u`'s farthest current child (0 if it has none).
    pub fn farthest_child(&self) -> f64 {
        self.child_distances.iter().copied().fold(0.0, f64::max)
    }

    /// Number of overhearers within `range_m` of `u`.
    pub fn overhearers_within(&self, range_m: f64) -> usize {
        self.non_member_neighbor_distances.iter().filter(|&&d| d <= range_m).count()
    }
}

/// The overhead `C(u, v)` of node `v` (at `distance_m` from `u`) joining candidate parent
/// `u`, under the given metric. This is the quantity the guarded commands minimise.
pub fn join_overhead(
    kind: MetricKind,
    params: &MetricParams,
    parent: &ParentView,
    distance_m: f64,
) -> f64 {
    match kind {
        MetricKind::Hop => 1.0,
        MetricKind::TxLink => params.tx(distance_m),
        MetricKind::Farthest => {
            let old_far = parent.farthest_child();
            let new_far = old_far.max(distance_m);
            let delta_tx = params.tx(new_far) - params.tx(old_far);
            delta_tx + params.rx()
        }
        MetricKind::EnergyAware => {
            let old_far = parent.farthest_child();
            let new_far = old_far.max(distance_m);
            let delta_tx = params.tx(new_far) - params.tx(old_far);
            // Joining may grow u's transmission range, dragging more non-group neighbours
            // into overhearing; each pays one reception per data packet.
            let old_overhear = parent.overhearers_within(old_far);
            let new_overhear = parent.overhearers_within(new_far);
            let delta_discard = (new_overhear - old_overhear) as f64 * params.rx();
            delta_tx + params.rx() + delta_discard
        }
        // Joining raises the path's longest link only if the new link is longer.
        MetricKind::Bottleneck => (distance_m - parent.cost).max(0.0),
    }
}

/// Accumulated path cost of joining `u`: `l(u) + C(u, v)`, or `max(l(u), |u, v|)` under
/// the Bottleneck metric.
pub fn cost_via(
    kind: MetricKind,
    params: &MetricParams,
    parent: &ParentView,
    distance_m: f64,
) -> f64 {
    match kind {
        MetricKind::Bottleneck => parent.cost.max(distance_m),
        _ => parent.cost + join_overhead(kind, params, parent, distance_m),
    }
}

/// The *node cost* of a tree node (equations 2 and 4): what `v` itself spends per data
/// packet given its children and, for SS-SPST-E, the overhearers inside its range. Under
/// the Bottleneck metric it is the longest link `v` transmits over.
///
/// * `child_distances` — distances from `v` to each of its tree children.
/// * `tree_neighbor_count` — children plus the parent (the paper's `k`).
/// * `non_member_neighbor_distances` — distances from `v` to its non-group, non-tree
///   neighbours.
pub fn node_cost(
    kind: MetricKind,
    params: &MetricParams,
    child_distances: &[f64],
    tree_neighbor_count: usize,
    non_member_neighbor_distances: &[f64],
) -> f64 {
    let far = child_distances.iter().copied().fold(0.0, f64::max);
    let tx = if child_distances.is_empty() { 0.0 } else { params.tx(far) };
    match kind {
        MetricKind::Hop => child_distances.len() as f64,
        MetricKind::TxLink => child_distances.iter().map(|&d| params.tx(d)).sum(),
        MetricKind::Farthest => tx + tree_neighbor_count as f64 * params.rx(),
        MetricKind::EnergyAware => {
            let discard = non_member_neighbor_distances.iter().filter(|&&d| d <= far).count()
                as f64
                * params.rx();
            tx + tree_neighbor_count as f64 * params.rx() + discard
        }
        MetricKind::Bottleneck => far,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MetricParams {
        MetricParams::default()
    }

    #[test]
    fn protocol_names_match_paper() {
        assert_eq!(MetricKind::Hop.protocol_name(), "SS-SPST");
        assert_eq!(MetricKind::TxLink.protocol_name(), "SS-SPST-T");
        assert_eq!(MetricKind::Farthest.protocol_name(), "SS-SPST-F");
        assert_eq!(MetricKind::EnergyAware.protocol_name(), "SS-SPST-E");
        assert!(MetricKind::EnergyAware.is_energy_based());
        assert!(MetricKind::EnergyAware.is_node_based());
        assert!(!MetricKind::TxLink.is_node_based());
        assert_eq!(MetricKind::Bottleneck.protocol_name(), "SS-MST");
        assert!(MetricKind::Bottleneck.is_energy_based(), "SS-MST forwards with power control");
        assert!(MetricKind::ALL.iter().all(|k| k.is_additive()));
        assert!(!MetricKind::Bottleneck.is_additive());
    }

    #[test]
    fn bottleneck_cost_is_the_longest_link() {
        let p = params();
        let pv = ParentView { cost: 60.0, hop: 1, ..Default::default() };
        assert_eq!(cost_via(MetricKind::Bottleneck, &p, &pv, 40.0), 60.0);
        assert_eq!(cost_via(MetricKind::Bottleneck, &p, &pv, 100.0), 100.0);
        assert_eq!(join_overhead(MetricKind::Bottleneck, &p, &pv, 40.0), 0.0);
        assert_eq!(node_cost(MetricKind::Bottleneck, &p, &[100.0, 150.0], 3, &[]), 150.0);
        // Infinity sits just above the longest usable link.
        assert_eq!(MetricKind::Bottleneck.infinity_cost(&p, 50, 250.0), 251.0);
        assert_eq!(MetricKind::Hop.infinity_cost(&p, 50, 250.0), 2501.0);
    }

    #[test]
    fn hop_overhead_is_one() {
        let pv = ParentView { cost: 3.0, hop: 3, ..Default::default() };
        assert_eq!(join_overhead(MetricKind::Hop, &params(), &pv, 500.0), 1.0);
        assert_eq!(cost_via(MetricKind::Hop, &params(), &pv, 500.0), 4.0);
    }

    #[test]
    fn txlink_overhead_equals_link_energy() {
        let pv = ParentView::default();
        let p = params();
        let c = join_overhead(MetricKind::TxLink, &p, &pv, 100.0);
        assert!((c - p.tx(100.0)).abs() < 1e-15);
    }

    #[test]
    fn farthest_overhead_is_cheap_inside_existing_range() {
        let p = params();
        // u already reaches a child at 200 m; joining at 100 m costs only one reception.
        let pv =
            ParentView { cost: 0.0, hop: 1, child_distances: vec![200.0], ..Default::default() };
        let inside = join_overhead(MetricKind::Farthest, &p, &pv, 100.0);
        assert!((inside - p.rx()).abs() < 1e-15);
        // Joining beyond the current range pays the marginal transmission energy.
        let outside = join_overhead(MetricKind::Farthest, &p, &pv, 250.0);
        assert!((outside - (p.tx(250.0) - p.tx(200.0) + p.rx())).abs() < 1e-15);
        assert!(outside > inside);
    }

    #[test]
    fn energy_aware_penalises_overhearers() {
        let p = params();
        // Candidate A: no non-group neighbours. Candidate B: three potential overhearers
        // that a range increase to 150 m would wake up. Same geometry otherwise.
        let a = ParentView { cost: 1.0, hop: 1, child_distances: vec![50.0], ..Default::default() };
        let b = ParentView {
            cost: 1.0,
            hop: 1,
            child_distances: vec![50.0],
            non_member_neighbor_distances: vec![60.0, 80.0, 100.0],
        };
        let ca = cost_via(MetricKind::EnergyAware, &p, &a, 150.0);
        let cb = cost_via(MetricKind::EnergyAware, &p, &b, 150.0);
        assert!((cb - ca - 3.0 * p.rx()).abs() < 1e-12, "three new overhearers cost 3 receptions");
        // Under the F metric the two candidates are indistinguishable (Figure 5's point).
        let fa = cost_via(MetricKind::Farthest, &p, &a, 150.0);
        let fb = cost_via(MetricKind::Farthest, &p, &b, 150.0);
        assert_eq!(fa, fb);
    }

    #[test]
    fn energy_aware_ignores_overhearers_already_in_range() {
        let p = params();
        // Overhearers inside the existing range are already paying; joining closer than
        // the current farthest child adds no discard energy.
        let pv = ParentView {
            cost: 0.0,
            hop: 1,
            child_distances: vec![200.0],
            non_member_neighbor_distances: vec![50.0, 100.0],
        };
        let c_e = join_overhead(MetricKind::EnergyAware, &p, &pv, 150.0);
        let c_f = join_overhead(MetricKind::Farthest, &p, &pv, 150.0);
        assert!((c_e - c_f).abs() < 1e-15);
    }

    #[test]
    fn node_cost_matches_equations() {
        let p = params();
        // Leaf node: no children, one tree neighbour (its parent).
        let leaf_f = node_cost(MetricKind::Farthest, &p, &[], 1, &[]);
        assert!((leaf_f - p.rx()).abs() < 1e-15);
        // Interior node: two children at 100 and 150 m, parent, one overhearer at 120 m.
        let f = node_cost(MetricKind::Farthest, &p, &[100.0, 150.0], 3, &[120.0]);
        assert!((f - (p.tx(150.0) + 3.0 * p.rx())).abs() < 1e-15);
        let e = node_cost(MetricKind::EnergyAware, &p, &[100.0, 150.0], 3, &[120.0]);
        assert!((e - (f + p.rx())).abs() < 1e-15, "the 120 m overhearer is inside the 150 m range");
        // An overhearer outside the transmission range costs nothing.
        let e_far = node_cost(MetricKind::EnergyAware, &p, &[100.0, 150.0], 3, &[200.0]);
        assert!((e_far - f).abs() < 1e-15);
        // Hop / TxLink node costs.
        assert_eq!(node_cost(MetricKind::Hop, &p, &[100.0, 150.0], 3, &[]), 2.0);
        let t = node_cost(MetricKind::TxLink, &p, &[100.0, 150.0], 3, &[]);
        assert!((t - (p.tx(100.0) + p.tx(150.0))).abs() < 1e-15);
    }

    #[test]
    fn parent_view_helpers() {
        let pv = ParentView {
            cost: 0.0,
            hop: 0,
            child_distances: vec![10.0, 80.0, 40.0],
            non_member_neighbor_distances: vec![30.0, 90.0],
        };
        assert_eq!(pv.farthest_child(), 80.0);
        assert_eq!(pv.overhearers_within(50.0), 1);
        assert_eq!(pv.overhearers_within(100.0), 2);
    }
}
