//! Engine selection: the classic sequential event loop vs the region-sharded parallel
//! engine.
//!
//! The default configuration (`shards = 0`) runs the original single-threaded event
//! loop, byte-identical to every earlier build. Any positive shard count switches the
//! run to the sharded engine (`crate::runtime::shard`): nodes are partitioned into
//! spatial stripes, each stripe's events drain on a worker thread, and shards advance in
//! conservative lockstep windows bounded by the radio's minimum propagation delay.
//! The sharded engine is deterministic and *shard-count invariant* — the same setup
//! yields byte-identical reports at 1, 2 or 8 shards. Both engines run the same per-node
//! semantics; the sharded one reads positions frozen per [`EngineConfig::SYNC_WINDOW`]
//! (250 ms), draws loss from per-sender streams and evaluates carrier capture at
//! delivery (see `EXPERIMENTS.md`).
//! On exact physics the two engines produce byte-identical reports
//! (`tests/engine_equivalence.rs`).

use serde::{Deserialize, Serialize};
use ssmcast_dessim::SimDuration;

/// How the runtime drains its event queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of spatial shards (worker threads). `0` — the default — selects the
    /// classic sequential engine; any positive count selects the sharded engine, whose
    /// results are invariant in this number.
    pub shards: u32,
    /// Attach an [`ssmcast_metrics::EngineStats`] block to the report. Off by default
    /// so reports stay byte-identical to builds that predate the block.
    pub stats: bool,
}

impl EngineConfig {
    /// Cadence at which the sharded engine refreshes mobility positions and rebuilds
    /// its spatial index (the sequential engine moves nodes continuously): 250 ms. At
    /// the paper's 20 m/s speed cap a node moves ≤ 5 m per window — 2 % of the 250 m
    /// default radio range.
    pub const SYNC_WINDOW: SimDuration = SimDuration::from_millis(250);

    /// The sharded engine with `shards` worker threads (clamped to ≥ 1).
    pub fn sharded(shards: u32) -> Self {
        EngineConfig { shards: shards.max(1), ..EngineConfig::default() }
    }

    /// The same configuration with engine statistics attached to the report.
    pub fn with_stats(mut self) -> Self {
        self.stats = true;
        self
    }

    /// True when the sharded engine is selected.
    pub fn is_parallel(&self) -> bool {
        self.shards > 0
    }

    /// Worker-thread count for the sharded engine (0 in sequential mode).
    pub fn worker_count(&self) -> usize {
        self.shards as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_sequential_engine() {
        let e = EngineConfig::default();
        assert_eq!(e.shards, 0);
        assert!(!e.is_parallel());
        assert!(!e.stats);
    }

    #[test]
    fn sharded_clamps_to_at_least_one_worker() {
        assert_eq!(EngineConfig::sharded(0).shards, 1);
        assert_eq!(EngineConfig::sharded(8).shards, 8);
        assert!(EngineConfig::sharded(1).is_parallel());
        assert_eq!(EngineConfig::sharded(4).worker_count(), 4);
    }

    #[test]
    fn builders_compose() {
        let e = EngineConfig::sharded(2).with_stats();
        assert!(e.stats);
        assert_eq!(e.shards, 2);
    }
}
