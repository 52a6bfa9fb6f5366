//! Broadcast channel occupancy and collision tracking.

use crate::node::NodeId;
use ssmcast_dessim::SimTime;

/// Tracks, per receiver, until when its radio is busy receiving.
///
/// The collision model is a simple capture-effect model: if a new reception starts while
/// an earlier one is still in progress at the same receiver, the *later* reception is
/// corrupted and lost; the earlier one survives. This is intentionally simpler than an
/// 802.11 MAC but produces the qualitative effect that matters for the paper's comparison:
/// protocols that flood (ODMRP) or beacon densely lose more frames under load.
///
/// Collisions are attributed to the multicast session whose frame was corrupted, so
/// multi-group runs can break the damage down per group; the per-session counters always
/// sum to the global one.
#[derive(Clone, Debug)]
pub struct Channel {
    busy_until: Vec<SimTime>,
    receptions: u64,
    collisions: u64,
    session_collisions: Vec<u64>,
}

impl Channel {
    /// Create a channel for `n_nodes` receivers shared by `n_sessions` multicast
    /// sessions.
    pub fn new(n_nodes: usize, n_sessions: usize) -> Self {
        Channel {
            busy_until: vec![SimTime::ZERO; n_nodes],
            receptions: 0,
            collisions: 0,
            session_collisions: vec![0; n_sessions.max(1)],
        }
    }

    /// Register a reception of one of `session`'s frames at `rx`, occupying
    /// `[start, end)`.
    ///
    /// Returns `true` if the reception is clean, `false` if it collides with an ongoing
    /// reception (in which case it should be dropped). Either way the receiver's radio is
    /// considered busy until `end` — a corrupted frame still occupies the air.
    pub fn try_receive(&mut self, session: u16, rx: NodeId, start: SimTime, end: SimTime) -> bool {
        let slot = &mut self.busy_until[rx.index()];
        let clean = *slot <= start;
        if end > *slot {
            *slot = end;
        }
        self.receptions += 1;
        if !clean {
            self.collisions += 1;
            self.session_collisions[usize::from(session)] += 1;
        }
        clean
    }

    /// Total number of receptions registered (clean or collided).
    pub fn receptions(&self) -> u64 {
        self.receptions
    }

    /// Total number of collided receptions observed.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Collided receptions of `session`'s frames. Sessions partition the global count:
    /// summing this over all sessions gives [`Self::collisions`].
    pub fn collisions_for(&self, session: usize) -> u64 {
        self.session_collisions[session]
    }

    /// Fold another replica of this channel into this one (the sharded engine keeps one
    /// per shard, each touching only its own receivers): counters add up, and each
    /// receiver stays busy until the later of the two horizons.
    pub fn absorb(&mut self, other: &Channel) {
        for (mine, theirs) in self.busy_until.iter_mut().zip(&other.busy_until) {
            *mine = (*mine).max(*theirs);
        }
        self.receptions += other.receptions;
        self.collisions += other.collisions;
        for (mine, theirs) in self.session_collisions.iter_mut().zip(&other.session_collisions) {
            *mine += theirs;
        }
    }

    /// True if `rx`'s radio is busy at `t`.
    pub fn is_busy(&self, rx: NodeId, t: SimTime) -> bool {
        self.busy_until[rx.index()] > t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmcast_dessim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn non_overlapping_receptions_are_clean() {
        let mut ch = Channel::new(2, 1);
        assert!(ch.try_receive(0, NodeId(0), t(0), t(2)));
        assert!(ch.try_receive(0, NodeId(0), t(2), t(4)), "back-to-back frames do not collide");
        assert_eq!(ch.collisions(), 0);
        assert_eq!(ch.receptions(), 2);
    }

    #[test]
    fn overlapping_reception_is_lost() {
        let mut ch = Channel::new(2, 1);
        assert!(ch.try_receive(0, NodeId(0), t(0), t(5)));
        assert!(!ch.try_receive(0, NodeId(0), t(3), t(8)), "later overlapping frame is corrupted");
        assert_eq!(ch.collisions(), 1);
        // Busy window extends to the end of the corrupted frame.
        assert!(ch.is_busy(NodeId(0), t(7)));
        assert!(!ch.is_busy(NodeId(0), t(9)));
    }

    #[test]
    fn receivers_are_independent() {
        let mut ch = Channel::new(3, 1);
        assert!(ch.try_receive(0, NodeId(0), t(0), t(5)));
        assert!(ch.try_receive(0, NodeId(1), t(1), t(6)), "different receiver, no collision");
        assert!(ch.try_receive(0, NodeId(2), t(2), t(7)));
        assert_eq!(ch.collisions(), 0);
    }

    #[test]
    fn is_busy_is_half_open_on_the_reception_window() {
        let mut ch = Channel::new(1, 1);
        assert!(!ch.is_busy(NodeId(0), t(0)), "an untouched receiver is idle");
        ch.try_receive(0, NodeId(0), t(2), t(5));
        // `[start, end)`: busy strictly before `end`, idle exactly at `end`.
        assert!(ch.is_busy(NodeId(0), t(2)));
        assert!(ch.is_busy(NodeId(0), t(4)));
        assert!(!ch.is_busy(NodeId(0), t(5)));
    }

    #[test]
    fn zero_duration_frames_collide_but_never_occupy_the_air() {
        let mut ch = Channel::new(1, 1);
        // A zero-duration frame on an idle channel is clean and leaves no busy window.
        assert!(ch.try_receive(0, NodeId(0), t(1), t(1)));
        assert!(!ch.is_busy(NodeId(0), t(1)));
        // Two of them back to back at the same instant are both clean.
        assert!(ch.try_receive(0, NodeId(0), t(1), t(1)));
        assert_eq!(ch.collisions(), 0);
        // But a zero-duration frame inside someone else's reception still collides —
        // and must not shrink the existing busy window.
        assert!(ch.try_receive(0, NodeId(0), t(2), t(6)));
        assert!(!ch.try_receive(0, NodeId(0), t(4), t(4)));
        assert_eq!(ch.collisions(), 1);
        assert!(ch.is_busy(NodeId(0), t(5)));
        assert_eq!(ch.receptions(), 4);
    }

    #[test]
    fn collisions_are_attributed_to_the_corrupted_frames_session() {
        let mut ch = Channel::new(2, 3);
        // Session 0's frame occupies the receiver; session 2's frame collides into it.
        assert!(ch.try_receive(0, NodeId(0), t(0), t(5)));
        assert!(!ch.try_receive(2, NodeId(0), t(3), t(8)));
        // Another overlap, this time corrupting a session-0 frame at node 1.
        assert!(ch.try_receive(1, NodeId(1), t(0), t(5)));
        assert!(!ch.try_receive(0, NodeId(1), t(1), t(2)));
        assert_eq!(ch.collisions_for(0), 1);
        assert_eq!(ch.collisions_for(1), 0);
        assert_eq!(ch.collisions_for(2), 1);
        let total: u64 = (0..3).map(|s| ch.collisions_for(s)).sum();
        assert_eq!(total, ch.collisions(), "per-session counts partition the global one");
    }
}
