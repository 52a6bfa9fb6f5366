//! Engine-level observability: what the event loop itself did during a run.
//!
//! Protocol metrics describe the simulated network; [`EngineStats`] describes the
//! simulator — how many events it processed, how fast, how deep its queues ran, and (on
//! the sharded engine) how evenly the spatial partition spread the load and how many
//! synchronization windows the shards marched through. The block is opt-in
//! (`EngineConfig::with_stats`) and absent from serialized reports when off, so default
//! reports stay byte-identical; events/s is wall-clock derived and therefore **not**
//! deterministic — equivalence tests must run with stats off.

use serde::{Deserialize, Serialize};

/// Event-loop measurements for one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Shard (worker-thread) count; 0 for the sequential engine.
    pub shards: u32,
    /// Events processed across all shards. Each receiver of a delivery counts as one
    /// event, although a transmission's receivers share one queue entry per queue.
    pub events_processed: u64,
    /// Events processed per wall-clock second (0 when the run took no measurable time).
    /// Wall-clock derived: reproducible runs still report different rates.
    pub events_per_sec: f64,
    /// Largest number of queue entries observed pending in any single queue. A
    /// transmission is one entry per destination queue, however many receivers it has,
    /// so this counts entries, not the node events they hold.
    pub peak_queue_depth: u64,
    /// Events processed by each shard (one entry, index 0, for the sequential engine).
    pub shard_event_counts: Vec<u64>,
    /// Load imbalance: max over shards of events processed, divided by the mean
    /// (1.0 = perfectly balanced; 1.0 for the sequential engine).
    pub imbalance_ratio: f64,
    /// Synchronization windows the sharded engine stepped through (0 for sequential).
    pub sync_rounds: u64,
}

impl EngineStats {
    /// Assemble a block from per-shard event counts and wall-clock duration.
    pub fn from_counts(
        shards: u32,
        shard_event_counts: Vec<u64>,
        peak_queue_depth: u64,
        sync_rounds: u64,
        wall_secs: f64,
    ) -> Self {
        let events_processed: u64 = shard_event_counts.iter().sum();
        let events_per_sec =
            if wall_secs > 0.0 { events_processed as f64 / wall_secs } else { 0.0 };
        let imbalance_ratio = if shard_event_counts.is_empty() || events_processed == 0 {
            1.0
        } else {
            let max = *shard_event_counts.iter().max().expect("non-empty") as f64;
            let mean = events_processed as f64 / shard_event_counts.len() as f64;
            max / mean
        };
        EngineStats {
            shards,
            events_processed,
            events_per_sec,
            peak_queue_depth,
            shard_event_counts,
            imbalance_ratio,
            sync_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_derives_totals_and_imbalance() {
        let s = EngineStats::from_counts(4, vec![100, 300, 100, 100], 42, 7, 2.0);
        assert_eq!(s.events_processed, 600);
        assert_eq!(s.events_per_sec, 300.0);
        assert_eq!(s.peak_queue_depth, 42);
        assert_eq!(s.sync_rounds, 7);
        assert!((s.imbalance_ratio - 2.0).abs() < 1e-12, "300 / 150 mean");
    }

    #[test]
    fn degenerate_inputs_stay_finite() {
        let s = EngineStats::from_counts(0, vec![0], 0, 0, 0.0);
        assert_eq!(s.events_per_sec, 0.0);
        assert_eq!(s.imbalance_ratio, 1.0);
        let empty = EngineStats::from_counts(0, vec![], 0, 0, 1.0);
        assert_eq!(empty.imbalance_ratio, 1.0);
    }
}
