//! Beacon messages: the proactive control traffic of the SS-SPST family.
//!
//! Every node periodically broadcasts its link and node characteristics; neighbours use
//! them to price the cost of joining the sender (Section 3 of the paper). SS-SPST-E
//! additionally advertises the distances of its non-group neighbours so that candidates
//! can estimate discard energy — this is the "additional information in its beacon packet"
//! that gives SS-SPST-E a slightly higher control-byte overhead (Figure 13).

use crate::metric::MetricKind;
use ssmcast_manet::{NodeId, Vec2};

/// The contents of one beacon.
#[derive(Clone, Debug, PartialEq)]
pub struct Beacon {
    /// Sender's position at transmission time (stands in for the link characteristics a
    /// real radio would measure; receivers derive the link distance from it).
    pub position: Vec2,
    /// Sender's accumulated cost variable `l_v`.
    pub cost: f64,
    /// Sender's hop count `h_v`.
    pub hop: u32,
    /// Sender's current parent.
    pub parent: Option<NodeId>,
    /// True if the sender is a group member.
    pub member: bool,
    /// Bottom-up pruning flag: true if the sender's subtree contains a group member.
    pub has_downstream_member: bool,
    /// Distances from the sender to its current tree children, with their ids so a
    /// candidate child can exclude itself when pricing a (re-)join.
    pub children: Vec<(NodeId, f64)>,
    /// Distances from the sender to its non-member, non-tree neighbours (potential
    /// overhearers). Only advertised by SS-SPST-E.
    pub non_member_neighbor_distances: Vec<f64>,
    /// Upper bound, in seconds, on the time until the sender's next beacon. Under
    /// adaptive beacon suppression a quiet node backs its cadence off, and receivers
    /// must scale their staleness expiry by this advertised bound instead of falsely
    /// expiring a correctly silent neighbour. Suppression-off senders advertise their
    /// fixed beacon interval, and the field rides the wire only when suppression is
    /// enabled (see [`Beacon::advertised_wire_size`]).
    pub next_beacon_s: f64,
}

impl Beacon {
    /// Size of this beacon on the wire, in bytes, for control-overhead accounting.
    ///
    /// * common header: sender id, position, cost, hop, parent, flags ≈ 24 bytes;
    /// * node-based metrics additionally list children (3 bytes each);
    /// * SS-SPST-E additionally lists overhearer distances (2 bytes each).
    pub fn wire_size(&self, kind: MetricKind) -> u32 {
        let base = 24u32;
        match kind {
            MetricKind::Hop | MetricKind::TxLink | MetricKind::Bottleneck => base,
            MetricKind::Farthest => base + 3 * self.children.len() as u32,
            MetricKind::EnergyAware => {
                base + 3 * self.children.len() as u32
                    + 2 * self.non_member_neighbor_distances.len() as u32
            }
        }
    }

    /// Bytes the advertised next-beacon bound adds to the wire format when beacon
    /// suppression is enabled.
    pub const BOUND_FIELD_BYTES: u32 = 4;

    /// Wire size including the next-beacon bound when `advertise_bound` is set.
    /// Suppression-off runs never advertise, so their beacons keep the classic
    /// [`Beacon::wire_size`] byte for byte.
    pub fn advertised_wire_size(&self, kind: MetricKind, advertise_bound: bool) -> u32 {
        self.wire_size(kind) + if advertise_bound { Self::BOUND_FIELD_BYTES } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon() -> Beacon {
        Beacon {
            position: Vec2::new(1.0, 2.0),
            cost: 3.5,
            hop: 2,
            parent: Some(NodeId(7)),
            member: true,
            has_downstream_member: true,
            children: vec![(NodeId(3), 80.0), (NodeId(4), 120.0)],
            non_member_neighbor_distances: vec![60.0, 90.0, 140.0],
            next_beacon_s: 2.0,
        }
    }

    #[test]
    fn wire_size_grows_with_metric_richness() {
        let b = beacon();
        let hop = b.wire_size(MetricKind::Hop);
        let t = b.wire_size(MetricKind::TxLink);
        let f = b.wire_size(MetricKind::Farthest);
        let e = b.wire_size(MetricKind::EnergyAware);
        assert_eq!(hop, t);
        assert_eq!(hop, b.wire_size(MetricKind::Bottleneck), "SS-MST beacons are link-based");
        assert!(f > hop, "node-based beacons carry child lists");
        assert!(e > f, "SS-SPST-E beacons carry overhearer info (Figure 13)");
        assert_eq!(f, 24 + 6);
        assert_eq!(e, 24 + 6 + 6);
    }

    #[test]
    fn next_beacon_bound_costs_bytes_only_when_advertised() {
        let b = beacon();
        for kind in MetricKind::ALL {
            assert_eq!(b.advertised_wire_size(kind, false), b.wire_size(kind));
            assert_eq!(
                b.advertised_wire_size(kind, true),
                b.wire_size(kind) + Beacon::BOUND_FIELD_BYTES
            );
        }
    }
}
