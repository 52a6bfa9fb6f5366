//! Packets exchanged over the broadcast wireless medium.

use crate::node::{GroupId, NodeId};
use serde::{Deserialize, Serialize};
use ssmcast_dessim::SimTime;

/// Whether a packet carries protocol control information or application data.
///
/// The distinction drives the control-overhead metric (Figure 13) and the energy
/// accounting categories.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum PacketClass {
    /// Protocol control traffic: beacons, join queries/replies, route requests, ...
    Control,
    /// Multicast application data.
    Data,
}

/// Application-data identification carried end to end so the runtime can measure packet
/// delivery ratio and delay without understanding protocol payloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DataTag {
    /// Multicast group the data belongs to.
    pub group: GroupId,
    /// Node that originated the data.
    pub origin: NodeId,
    /// Application-level sequence number, unique per origin.
    pub seq: u64,
    /// When the application generated the packet (for end-to-end delay).
    pub created_at: SimTime,
}

/// An exact set of dense sequence numbers: one bit per sequence, in 64-bit words that
/// grow on demand.
///
/// This is the duplicate filter every agent keeps. It is meant for counters that start
/// at 0 and step by 1: the application's [`DataTag::seq`], a leader's hello sequence or
/// a source's query sequence. Its memory is one bit per sequence up to the largest
/// inserted, so a set holding `0..n` takes ⌈n/64⌉ words, against one hash entry per
/// sequence for a `HashSet<u64>`. The first word (sequences 0–63) lives inline in the
/// struct, so a lookup reads no second allocation and a set that never passes sequence
/// 63 never allocates; only later words go to the heap. A sparse or random key (say
/// `1 << 40`) would allocate every word below it; such keys belong in a hash set.
#[derive(Clone, Debug, Default)]
pub struct SeqSet {
    /// Sequences 0–63.
    first: u64,
    /// Sequences from 64 on: `rest[k]` holds `64 * (k + 1)..64 * (k + 2)`.
    rest: Vec<u64>,
}

impl SeqSet {
    /// An empty set; it allocates only on the first insert past sequence 63.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seq`. Returns true if it was not in the set, as `HashSet::insert` does.
    pub fn insert(&mut self, seq: u64) -> bool {
        let bit = 1 << (seq % 64);
        let word = match (seq / 64) as usize {
            0 => &mut self.first,
            w => {
                if w > self.rest.len() {
                    self.rest.resize(w, 0);
                }
                &mut self.rest[w - 1]
            }
        };
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Number of 64-bit words the set holds: one past the largest inserted sequence,
    /// divided by 64 and rounded up.
    pub fn words(&self) -> usize {
        match self.rest.len() {
            0 => usize::from(self.first != 0),
            n => n + 1,
        }
    }
}

/// A frame on the air. `P` is the protocol-specific payload type.
///
/// A transmission is always a local broadcast: every node within the chosen transmission
/// range receives a copy (the *wireless multicast advantage*), so there is no link-layer
/// destination field; protocols address each other inside their payloads.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet<P> {
    /// The transmitting node (last hop, not necessarily the data origin).
    pub sender: NodeId,
    /// Control or data.
    pub class: PacketClass,
    /// Size on the wire in bytes (headers included); drives airtime and energy.
    pub size_bytes: u32,
    /// Present when the frame carries (a copy of) an application data packet.
    pub data: Option<DataTag>,
    /// Protocol-specific contents.
    pub payload: P,
}

impl<P> Packet<P> {
    /// Construct a control packet.
    pub fn control(sender: NodeId, size_bytes: u32, payload: P) -> Self {
        Packet { sender, class: PacketClass::Control, size_bytes, data: None, payload }
    }

    /// Construct a data-bearing packet.
    pub fn data(sender: NodeId, size_bytes: u32, tag: DataTag, payload: P) -> Self {
        Packet { sender, class: PacketClass::Data, size_bytes, data: Some(tag), payload }
    }

    /// True if this frame carries application data.
    pub fn is_data(&self) -> bool {
        self.class == PacketClass::Data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class() {
        let c: Packet<u8> = Packet::control(NodeId(1), 32, 7);
        assert_eq!(c.class, PacketClass::Control);
        assert!(!c.is_data());
        assert!(c.data.is_none());

        let tag =
            DataTag { group: GroupId(0), origin: NodeId(1), seq: 9, created_at: SimTime::ZERO };
        let d: Packet<u8> = Packet::data(NodeId(1), 512, tag, 7);
        assert!(d.is_data());
        assert_eq!(d.data.unwrap().seq, 9);
    }

    #[test]
    fn a_dense_run_holds_one_bit_per_sequence() {
        for n in [0u64, 1, 63, 64, 65, 128, 1000] {
            let mut set = SeqSet::new();
            assert!((0..n).all(|seq| set.insert(seq)));
            assert_eq!(set.words() as u64, n.div_ceil(64), "0..{n}");
            assert!((0..n).all(|seq| !set.insert(seq)), "every repeat is a duplicate");
            assert!(set.insert(n));
        }
    }

    mod props {
        use super::super::SeqSet;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            /// Random insert sequences mixing repeats, small steps, sparse jumps and the
            /// 63/64/65 word boundaries: every insert and every membership query agrees
            /// with a `HashSet<u64>` oracle (a query is an insert into a copy).
            #[test]
            fn seq_set_matches_a_hash_set_oracle(
                seed in 0u64..1_000_000,
                len in 1usize..400,
                max_jump in 1u64..5_000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut set, mut oracle) = (SeqSet::new(), HashSet::new());
                let mut last = 0u64;
                for _ in 0..len {
                    let seq = match rng.gen_range(0..5u32) {
                        0 => last,
                        1 => last + rng.gen_range(1..3u64),
                        2 => last + rng.gen_range(1..=max_jump),
                        3 => 64 * rng.gen_range(0..4u64) + rng.gen_range(63..66u64),
                        _ => rng.gen_range(0..=last),
                    };
                    last = last.max(seq);
                    prop_assert_eq!(set.insert(seq), oracle.insert(seq), "insert {}", seq);
                }
                for seq in 0..=last + 64 {
                    let absent = !oracle.contains(&seq);
                    prop_assert_eq!(set.clone().insert(seq), absent, "query {}", seq);
                }
                prop_assert_eq!(set.words() as u64, last / 64 + 1);
            }
        }
    }
}
