//! Raw simulation traces and the per-run report derived from them.
//!
//! Since the multi-session refactor a run carries one [`Trace`] per multicast session;
//! [`Trace::finish_aggregate`] folds them into the network-wide [`SimReport`] (whose
//! aggregate fields are defined exactly as the single-group originals), and
//! [`Trace::group_stats`] renders each session's own block. Single-session, churn-free
//! runs produce reports byte-identical to the pre-refactor build: the aggregate of one
//! trace *is* the old report, and the `groups` breakdown is omitted entirely.

use crate::node::NodeId;
use crate::packet::DataTag;
use serde::{Deserialize, Serialize};
use ssmcast_dessim::{SimDuration, SimTime};
use ssmcast_metrics::{
    ConvergenceStats, EngineStats, FixedBinHistogram, GroupStats, LifetimeStats, MacStats,
    MetricsConfig, SeqDedup, SilenceStats, StreamingStats, WindowLedger,
};

/// Bucket width of the unavailability ratio: deliveries are counted per one-second
/// window of generation time.
const UNAVAILABILITY_WINDOW: SimDuration = SimDuration::from_secs(1);

/// Per-window delivery ratio below which a window counts as unavailable.
const AVAILABILITY_THRESHOLD: f64 = 0.95;

/// Raw counters accumulated for one multicast session while a simulation runs.
///
/// Both [`MetricsConfig`] modes record into the same fields; they differ only in the
/// budgets handed to the duplicate detector and the window ledger, and in whether a
/// latency histogram is kept. The scalar counters (`expected`, `delay_sum`,
/// `delivered_count`, …) are therefore shared, which is why PDR, mean latency and
/// energy totals are bit-equal across modes.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Data packets generated (their timestamps travel in `DataTag::created_at`).
    generated: u64,
    /// Per-receiver sequence bitmaps: never lapse in exact mode; a 1024-sequence
    /// window in streaming mode.
    dedup: SeqDedup,
    /// Fresh-delivery latencies for the streaming block's quantiles; `None` in exact
    /// mode.
    latency: Option<FixedBinHistogram>,
    /// Per-window expected/delivered counts. In exact mode the ledger is unbounded
    /// (level 0: exactly the historical per-window maps); in streaming mode it
    /// coarsens to a fixed block budget.
    windows: WindowLedger,
    /// Deliveries owed: summed per generated packet from the membership at that instant.
    expected: u64,
    delay_sum: SimDuration,
    delivered_count: u64,
    duplicate_deliveries: u64,
    control_packets: u64,
    control_bytes: u64,
    data_packets_tx: u64,
    data_bytes_tx: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// Everything a session's [`GroupStats`] block needs beyond the trace counters: identity,
/// the churn the runtime applied, and the energy it attributed to this session.
#[derive(Clone, Copy, Debug)]
pub struct GroupAccounting {
    /// The session's group id.
    pub group: u16,
    /// The session's source node id.
    pub source: u32,
    /// Receivers at the start of the run.
    pub members_initial: u64,
    /// Receivers at the end of the run.
    pub members_final: u64,
    /// Join events applied.
    pub joins: u64,
    /// Leave events applied.
    pub leaves: u64,
    /// Energy attributed to this session's frames, joules.
    pub energy_j: f64,
    /// Overhearing energy attributed to this session, joules.
    pub overhear_energy_j: f64,
    /// Receptions of this session's frames lost to a collision on the shared medium.
    pub collisions: u64,
}

impl Trace {
    /// Create an exact trace. Streaming accumulation is opted into via
    /// [`Trace::with_config`].
    pub fn new() -> Self {
        Trace::with_config(&MetricsConfig::exact())
    }

    /// Create a trace in the accumulation mode selected by `metrics`.
    pub fn with_config(metrics: &MetricsConfig) -> Self {
        Trace {
            generated: 0,
            dedup: SeqDedup::new(metrics.dedup_window()),
            latency: metrics.latency_histogram(),
            windows: WindowLedger::bounded(metrics.window_budget()),
            expected: 0,
            delay_sum: SimDuration::ZERO,
            delivered_count: 0,
            duplicate_deliveries: 0,
            control_packets: 0,
            control_bytes: 0,
            data_packets_tx: 0,
            data_bytes_tx: 0,
        }
    }

    /// Approximate report-layer bytes held by this trace: a data-size lower bound
    /// (bitmap words, histogram bins, ledger blocks) that excludes allocator overhead.
    /// Used by the memory-bound evidence in benches and tests.
    pub fn approx_mem_bytes(&self) -> u64 {
        let latency = self.latency.as_ref().map_or(0, FixedBinHistogram::mem_bytes);
        8 + self.dedup.mem_bytes() + latency + self.windows.mem_bytes()
    }

    fn window_of(t: SimTime) -> u64 {
        t.as_nanos() / UNAVAILABILITY_WINDOW.as_nanos()
    }

    /// Record that the application generated data packet `seq` at time `t`, owed to
    /// `receivers` current members (members excluding the source at that instant —
    /// membership churn makes this a per-packet quantity).
    pub fn record_generated(&mut self, _seq: u64, t: SimTime, receivers: u64) {
        self.generated += 1;
        self.expected += receivers;
        let w = Self::window_of(t);
        self.windows.add_expected(w, receivers);
    }

    /// Record that `tag` reached the application at node `rx` at time `now`.
    /// Duplicate receptions of the same packet at the same node are counted once.
    /// (Streaming mode detects duplicates over a bounded per-receiver sequence window;
    /// a reception lapping the window is conservatively counted as a duplicate.)
    pub fn record_delivery(&mut self, tag: &DataTag, rx: NodeId, now: SimTime) {
        if !self.dedup.insert(rx.0, tag.seq) {
            self.duplicate_deliveries += 1;
            return;
        }
        self.delivered_count += 1;
        let delay = now.saturating_since(tag.created_at);
        self.delay_sum += delay;
        if let Some(latency) = &mut self.latency {
            latency.record(delay.as_nanos());
        }
        let gen_window = Self::window_of(tag.created_at);
        self.windows.add_delivered(gen_window, 1);
    }

    /// Record a transmitted control packet of `bytes`.
    pub fn record_control_tx(&mut self, bytes: u32) {
        self.control_packets += 1;
        self.control_bytes += u64::from(bytes);
    }

    /// Record a transmitted data packet of `bytes` (including forwarded copies).
    pub fn record_data_tx(&mut self, bytes: u32) {
        self.data_packets_tx += 1;
        self.data_bytes_tx += u64::from(bytes);
    }

    /// Number of data packets generated so far.
    pub fn generated_count(&self) -> u64 {
        self.generated
    }

    /// Number of unique (packet, member) deliveries.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Deliveries owed so far (running total, for mid-run lifetime sampling).
    pub fn expected_deliveries(&self) -> u64 {
        self.expected
    }

    /// Control packets transmitted so far (running total, for mid-run probes).
    pub fn control_packets(&self) -> u64 {
        self.control_packets
    }

    /// Data packet transmissions so far (running total, for mid-run probes).
    pub fn data_packets_tx(&self) -> u64 {
        self.data_packets_tx
    }

    /// Unavailability over this trace's windows: the fraction whose per-window delivery
    /// ratio fell below [`AVAILABILITY_THRESHOLD`] (1.0 when no traffic window exists).
    /// Defined by one shared ledger implementation so the per-session blocks and the
    /// merged aggregate agree. (The paper does not define the metric formally; see
    /// EXPERIMENTS.md.)
    fn unavailability(&self) -> f64 {
        self.windows.unavailability(AVAILABILITY_THRESHOLD)
    }

    /// Merge `other` into `self`: counters sum and sketches merge. The sharded engine
    /// records each session's trace piecewise (each shard sees only its own nodes'
    /// deliveries) and folds the pieces with this. All merged quantities are integers
    /// (delays are integer nanoseconds) and the streaming sketches coarsen to
    /// content-determined levels, so the merge is exact and order-independent — a
    /// prerequisite for shard-count-invariant reports.
    ///
    /// The pieces must be disjoint: every receiver's deliveries and every generated
    /// packet must have been recorded by exactly one piece (the sharded engine
    /// guarantees this — each node is owned by one shard), and all pieces must share
    /// one accumulation mode.
    pub fn absorb(&mut self, other: &Trace) {
        self.generated += other.generated;
        self.dedup.absorb(&other.dedup);
        if let (Some(latency), Some(ol)) = (&mut self.latency, &other.latency) {
            latency.absorb(ol);
        }
        self.expected += other.expected;
        self.delay_sum += other.delay_sum;
        self.delivered_count += other.delivered_count;
        self.duplicate_deliveries += other.duplicate_deliveries;
        self.control_packets += other.control_packets;
        self.control_bytes += other.control_bytes;
        self.data_packets_tx += other.data_packets_tx;
        self.data_bytes_tx += other.data_bytes_tx;
        self.windows.absorb(&other.windows);
    }

    /// Finish a single-session trace into a [`SimReport`] — the aggregate of one trace.
    pub fn finish(
        &self,
        protocol: &str,
        duration: SimDuration,
        total_energy_j: f64,
        overhear_energy_j: f64,
        collisions: u64,
        data_packet_size: u32,
    ) -> SimReport {
        Self::finish_aggregate(
            &[(self, data_packet_size)],
            protocol,
            duration,
            total_energy_j,
            overhear_energy_j,
            collisions,
        )
    }

    /// Fold per-session traces into the network-wide report. Every aggregate is defined
    /// exactly as the single-group original: counters sum, ratios divide the summed
    /// numerators by the summed denominators, and unavailability merges the sessions'
    /// per-window expectations before thresholding. Each trace is paired with its
    /// session's data packet size (control overhead divides by *delivered data bytes*,
    /// which may differ per session).
    pub fn finish_aggregate(
        traces: &[(&Trace, u32)],
        protocol: &str,
        duration: SimDuration,
        total_energy_j: f64,
        overhear_energy_j: f64,
        collisions: u64,
    ) -> SimReport {
        let mut generated = 0u64;
        let mut expected = 0u64;
        let mut delivered = 0u64;
        let mut duplicates = 0u64;
        let mut delay_sum = SimDuration::ZERO;
        let mut control_packets = 0u64;
        let mut control_bytes = 0u64;
        let mut data_packets_tx = 0u64;
        let mut data_bytes_tx = 0u64;
        let mut data_bytes_delivered = 0u64;
        let mut windows: Option<WindowLedger> = None;
        for (trace, data_packet_size) in traces {
            generated += trace.generated_count();
            expected += trace.expected;
            delivered += trace.delivered_count;
            duplicates += trace.duplicate_deliveries;
            delay_sum += trace.delay_sum;
            control_packets += trace.control_packets;
            control_bytes += trace.control_bytes;
            data_packets_tx += trace.data_packets_tx;
            data_bytes_tx += trace.data_bytes_tx;
            data_bytes_delivered += trace.delivered_count * u64::from(*data_packet_size);
            match &mut windows {
                None => windows = Some(trace.windows.clone()),
                Some(w) => w.absorb(&trace.windows),
            }
        }
        let pdr = if expected > 0 { delivered as f64 / expected as f64 } else { 0.0 };
        let avg_delay_ms =
            if delivered > 0 { delay_sum.as_millis_f64() / delivered as f64 } else { 0.0 };
        let energy_per_delivered_mj =
            if delivered > 0 { total_energy_j * 1_000.0 / delivered as f64 } else { 0.0 };
        let control_overhead = if data_bytes_delivered > 0 {
            control_bytes as f64 / data_bytes_delivered as f64
        } else {
            0.0
        };
        let unavailability =
            windows.as_ref().map(|w| w.unavailability(AVAILABILITY_THRESHOLD)).unwrap_or(1.0);

        // When every trace kept a latency histogram (streaming mode), summarize the
        // sketches. Quantiles come from the *merged* histogram (sessions merged here;
        // shard pieces already merged by `absorb`), so they are invariant to shard
        // count and session iteration order alike.
        let histograms: Option<Vec<&FixedBinHistogram>> =
            traces.iter().map(|(t, _)| t.latency.as_ref()).collect();
        let streaming = histograms.filter(|h| !h.is_empty()).map(|histograms| {
            let mut hist = histograms[0].clone();
            for h in &histograms[1..] {
                hist.absorb(h);
            }
            let report_bytes = traces.iter().map(|(t, _)| t.approx_mem_bytes()).sum();
            let ledger = windows.as_ref().expect("at least one trace");
            StreamingStats {
                latency_bin_width_ms: hist.bin_width_ns() as f64 / 1e6,
                latency_p50_ms: hist.quantile_ns(0.50) / 1e6,
                latency_p95_ms: hist.quantile_ns(0.95) / 1e6,
                latency_max_ms: hist.max_ns() as f64 / 1e6,
                latency_overflow: hist.overflow(),
                window_level: ledger.level(),
                window_blocks: ledger.blocks_len() as u64,
                report_bytes,
            }
        });

        SimReport {
            protocol: protocol.to_string(),
            duration_s: duration.as_secs_f64(),
            generated,
            expected_deliveries: expected,
            delivered,
            duplicate_deliveries: duplicates,
            pdr,
            avg_delay_ms,
            total_energy_j,
            overhear_energy_j,
            energy_per_delivered_mj,
            control_packets,
            control_bytes,
            data_packets_tx,
            data_bytes_tx,
            control_bytes_per_data_byte: control_overhead,
            unavailability_ratio: unavailability,
            collisions,
            convergence: None,
            groups: None,
            lifetime: None,
            mac: None,
            silence: None,
            engine: None,
            streaming,
        }
    }

    /// Render this session's per-group block (see [`GroupStats`]); the runtime supplies
    /// identity, churn counters and attributed energy via `acct`.
    pub fn group_stats(&self, acct: &GroupAccounting) -> GroupStats {
        let pdr = if self.expected > 0 {
            self.delivered_count as f64 / self.expected as f64
        } else {
            0.0
        };
        let avg_delay_ms = if self.delivered_count > 0 {
            self.delay_sum.as_millis_f64() / self.delivered_count as f64
        } else {
            0.0
        };
        let events = acct.joins + acct.leaves;
        let join_overhead =
            if events > 0 { self.control_bytes as f64 / events as f64 } else { 0.0 };
        GroupStats {
            group: acct.group,
            source: acct.source,
            members_initial: acct.members_initial,
            members_final: acct.members_final,
            joins: acct.joins,
            leaves: acct.leaves,
            generated: self.generated_count(),
            expected_deliveries: self.expected,
            delivered: self.delivered_count,
            duplicate_deliveries: self.duplicate_deliveries,
            pdr,
            avg_delay_ms,
            control_packets: self.control_packets,
            control_bytes: self.control_bytes,
            data_packets_tx: self.data_packets_tx,
            data_bytes_tx: self.data_bytes_tx,
            energy_j: acct.energy_j,
            overhear_energy_j: acct.overhear_energy_j,
            collisions: acct.collisions,
            join_overhead_bytes_per_event: join_overhead,
            unavailability_ratio: self.unavailability(),
            convergence: None,
        }
    }
}

/// Summary of one simulation run: everything needed to reproduce the paper's y-axes.
///
/// `Serialize` is implemented by hand so the `groups` breakdown is *omitted* (not
/// `null`) when absent: single-session, churn-free runs keep the exact serialized bytes
/// of the pre-multi-group builds (guarded by `tests/golden_single_group.rs`).
#[derive(Debug, Clone, Deserialize, PartialEq)]
pub struct SimReport {
    /// Protocol label.
    pub protocol: String,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Data packets generated by the source(s).
    pub generated: u64,
    /// Deliveries that should have happened (per packet, the membership at generation).
    pub expected_deliveries: u64,
    /// Unique (packet, member) deliveries that did happen.
    pub delivered: u64,
    /// Redundant deliveries suppressed by the dedup check (mesh protocols produce many).
    pub duplicate_deliveries: u64,
    /// Packet delivery ratio (Figure 7/10/12/14).
    pub pdr: f64,
    /// Average end-to-end delay of delivered packets, ms (Figure 15).
    pub avg_delay_ms: f64,
    /// Total energy consumed by all nodes, joules.
    pub total_energy_j: f64,
    /// Energy wasted on overheard/discarded receptions, joules.
    pub overhear_energy_j: f64,
    /// Energy per delivered packet, millijoules (Figure 9/11/16).
    pub energy_per_delivered_mj: f64,
    /// Control packets transmitted.
    pub control_packets: u64,
    /// Control bytes transmitted.
    pub control_bytes: u64,
    /// Data packet transmissions (including forwarding).
    pub data_packets_tx: u64,
    /// Data bytes transmitted.
    pub data_bytes_tx: u64,
    /// Control bytes per delivered data byte (Figure 13).
    pub control_bytes_per_data_byte: f64,
    /// Fraction of traffic windows in which the multicast service was unavailable (Figure 8).
    pub unavailability_ratio: f64,
    /// Collided receptions.
    pub collisions: u64,
    /// Convergence measurements from the stabilization probe, when the run injected
    /// faults or churned memberships (see the `faults` module and `ssmcast-core`'s
    /// `StabilizationProbe`). `None` for fault-free, churn-free runs, keeping them
    /// byte-identical to pre-fault builds.
    pub convergence: Option<ConvergenceStats>,
    /// Per-session breakdown for multi-group or churned runs; `None` (and absent from
    /// the serialized form) for plain single-group runs.
    pub groups: Option<Vec<GroupStats>>,
    /// Network-lifetime measurements when the run tracked the energy lifecycle (finite
    /// battery capacity or continuous idle/sleep drain): time-to-first-death, alive and
    /// delivery-ratio curves, residual-energy histogram. `None` (and absent from the
    /// serialized form) for unlimited-battery, drain-free runs, keeping them
    /// byte-identical to pre-lifecycle builds.
    pub lifetime: Option<LifetimeStats>,
    /// MAC-layer measurements when the run used a non-default medium-access policy (or
    /// explicitly asked for them). `None` (and absent from the serialized form) for
    /// default random-jitter runs, keeping them byte-identical to pre-MAC-layer builds.
    pub mac: Option<MacStats>,
    /// Steady-state vs recovery control-byte split when the run configured beacon
    /// suppression (`SilenceConfig`). `None` (and absent from the serialized form) for
    /// suppression-off runs, keeping them byte-identical to pre-suppression builds.
    pub silence: Option<SilenceStats>,
    /// Event-loop measurements when the run opted in via `EngineConfig::with_stats`.
    /// `None` (and absent from the serialized form) otherwise, keeping default reports
    /// byte-identical to builds that predate the block. Contains a wall-clock-derived
    /// rate, so stats-on reports are not byte-reproducible across runs.
    pub engine: Option<EngineStats>,
    /// Streaming-sketch summary (histogram quantiles, ledger coarsening, approximate
    /// report bytes) when the run accumulated in `MetricsConfig::Streaming`. `None` (and
    /// absent from the serialized form) for default exact-mode runs, keeping them
    /// byte-identical to pre-streaming builds.
    pub streaming: Option<StreamingStats>,
}

impl Serialize for SimReport {
    fn serialize_json(&self, out: &mut String) {
        // Field order and spelling must match what `#[derive(Serialize)]` emitted before
        // `groups` existed; the golden-bytes regression test depends on it.
        out.push('{');
        out.push_str("\"protocol\":");
        self.protocol.serialize_json(out);
        macro_rules! field {
            ($name:literal, $value:expr) => {
                out.push(',');
                out.push_str(concat!("\"", $name, "\":"));
                $value.serialize_json(out);
            };
        }
        field!("duration_s", self.duration_s);
        field!("generated", self.generated);
        field!("expected_deliveries", self.expected_deliveries);
        field!("delivered", self.delivered);
        field!("duplicate_deliveries", self.duplicate_deliveries);
        field!("pdr", self.pdr);
        field!("avg_delay_ms", self.avg_delay_ms);
        field!("total_energy_j", self.total_energy_j);
        field!("overhear_energy_j", self.overhear_energy_j);
        field!("energy_per_delivered_mj", self.energy_per_delivered_mj);
        field!("control_packets", self.control_packets);
        field!("control_bytes", self.control_bytes);
        field!("data_packets_tx", self.data_packets_tx);
        field!("data_bytes_tx", self.data_bytes_tx);
        field!("control_bytes_per_data_byte", self.control_bytes_per_data_byte);
        field!("unavailability_ratio", self.unavailability_ratio);
        field!("collisions", self.collisions);
        field!("convergence", self.convergence);
        if let Some(groups) = &self.groups {
            field!("groups", groups);
        }
        if let Some(lifetime) = &self.lifetime {
            field!("lifetime", lifetime);
        }
        if let Some(mac) = &self.mac {
            field!("mac", mac);
        }
        if let Some(silence) = &self.silence {
            field!("silence", silence);
        }
        if let Some(engine) = &self.engine {
            field!("engine", engine);
        }
        if let Some(streaming) = &self.streaming {
            field!("streaming", streaming);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::GroupId;

    fn tag(seq: u64, created_ms: u64) -> DataTag {
        DataTag {
            group: GroupId(0),
            origin: NodeId(0),
            seq,
            created_at: SimTime::ZERO + SimDuration::from_millis(created_ms),
        }
    }

    #[test]
    fn pdr_and_delay() {
        let mut tr = Trace::new();
        tr.record_generated(0, SimTime::ZERO, 2);
        tr.record_generated(1, SimTime::from_secs_f64(0.5), 2);
        // Packet 0 reaches both members, packet 1 reaches one of two.
        tr.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.010));
        tr.record_delivery(&tag(0, 0), NodeId(2), SimTime::from_secs_f64(0.030));
        tr.record_delivery(&tag(1, 500), NodeId(1), SimTime::from_secs_f64(0.520));
        let r = tr.finish("test", SimDuration::from_secs(1), 0.004, 0.001, 0, 512);
        assert_eq!(r.expected_deliveries, 4);
        assert_eq!(r.delivered, 3);
        assert!((r.pdr - 0.75).abs() < 1e-12);
        assert!((r.avg_delay_ms - 20.0).abs() < 1e-9);
        // 4 mJ over 3 deliveries.
        assert!((r.energy_per_delivered_mj - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn duplicates_count_once() {
        let mut tr = Trace::new();
        tr.record_generated(0, SimTime::ZERO, 1);
        tr.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.010));
        tr.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.020));
        let r = tr.finish("test", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.duplicate_deliveries, 1);
        assert_eq!(r.pdr, 1.0);
    }

    #[test]
    fn control_overhead_ratio() {
        let mut tr = Trace::new();
        tr.record_generated(0, SimTime::ZERO, 1);
        tr.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.010));
        tr.record_control_tx(256);
        tr.record_control_tx(256);
        tr.record_data_tx(512);
        let r = tr.finish("test", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        assert_eq!(r.control_bytes, 512);
        assert!((r.control_bytes_per_data_byte - 1.0).abs() < 1e-12);
        assert_eq!(r.data_packets_tx, 1);
    }

    #[test]
    fn unavailability_counts_bad_windows() {
        let mut tr = Trace::new();
        // Window 0: delivered. Window 1: lost. Window 2: delivered.
        for (seq, secs) in [(0u64, 0.1), (1, 1.1), (2, 2.1)] {
            tr.record_generated(seq, SimTime::from_secs_f64(secs), 1);
        }
        tr.record_delivery(&tag(0, 100), NodeId(1), SimTime::from_secs_f64(0.2));
        tr.record_delivery(&tag(2, 2100), NodeId(1), SimTime::from_secs_f64(2.2));
        let r = tr.finish("test", SimDuration::from_secs(3), 0.0, 0.0, 0, 512);
        assert!((r.unavailability_ratio - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_reports_zero_pdr_and_full_unavailability() {
        let tr = Trace::new();
        let r = tr.finish("test", SimDuration::from_secs(10), 0.0, 0.0, 0, 512);
        assert_eq!(r.pdr, 0.0);
        assert_eq!(r.unavailability_ratio, 1.0);
        assert_eq!(r.energy_per_delivered_mj, 0.0);
    }

    #[test]
    fn churn_makes_expected_deliveries_a_per_packet_quantity() {
        let mut tr = Trace::new();
        tr.record_generated(0, SimTime::from_secs_f64(0.1), 3);
        tr.record_generated(1, SimTime::from_secs_f64(0.2), 1); // two members left
        let r = tr.finish("test", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        assert_eq!(r.expected_deliveries, 4);
    }

    #[test]
    fn aggregate_of_two_sessions_sums_counters_and_merges_windows() {
        let mut a = Trace::new();
        a.record_generated(0, SimTime::from_secs_f64(0.1), 1);
        a.record_delivery(&tag(0, 100), NodeId(1), SimTime::from_secs_f64(0.2));
        a.record_data_tx(512);
        a.record_control_tx(64);
        let mut b = Trace::new();
        b.record_generated(0, SimTime::from_secs_f64(0.1), 2);
        // Session b delivers neither copy: the shared window 0 is still available in
        // aggregate only if 2 of 3 expected arrive — with the 0.95 threshold it is not.
        let r = Trace::finish_aggregate(
            &[(&a, 512), (&b, 256)],
            "agg",
            SimDuration::from_secs(1),
            0.5,
            0.1,
            3,
        );
        assert_eq!(r.generated, 2);
        assert_eq!(r.expected_deliveries, 3);
        assert_eq!(r.delivered, 1);
        assert!((r.pdr - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.collisions, 3);
        // Control overhead divides by delivered bytes at each session's own size.
        assert!((r.control_bytes_per_data_byte - 64.0 / 512.0).abs() < 1e-12);
        assert_eq!(r.unavailability_ratio, 1.0, "the merged window misses 2 of 3");
    }

    #[test]
    fn aggregate_of_one_trace_equals_finish() {
        let mut tr = Trace::new();
        tr.record_generated(0, SimTime::ZERO, 2);
        tr.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.010));
        tr.record_control_tx(128);
        let single = tr.finish("p", SimDuration::from_secs(2), 0.25, 0.125, 1, 512);
        let agg =
            Trace::finish_aggregate(&[(&tr, 512)], "p", SimDuration::from_secs(2), 0.25, 0.125, 1);
        assert_eq!(single, agg);
    }

    #[test]
    fn group_stats_render_the_per_session_block() {
        let mut tr = Trace::new();
        tr.record_generated(0, SimTime::from_secs_f64(0.1), 2);
        tr.record_delivery(&tag(0, 100), NodeId(1), SimTime::from_secs_f64(0.15));
        tr.record_control_tx(100);
        tr.record_control_tx(100);
        let g = tr.group_stats(&GroupAccounting {
            group: 2,
            source: 7,
            members_initial: 2,
            members_final: 3,
            joins: 3,
            leaves: 1,
            energy_j: 0.75,
            overhear_energy_j: 0.25,
            collisions: 4,
        });
        assert_eq!(g.group, 2);
        assert_eq!(g.source, 7);
        assert_eq!(g.expected_deliveries, 2);
        assert_eq!(g.delivered, 1);
        assert!((g.pdr - 0.5).abs() < 1e-12);
        assert_eq!(g.membership_events(), 4);
        assert!((g.join_overhead_bytes_per_event - 50.0).abs() < 1e-12);
        assert!((g.energy_j - 0.75).abs() < 1e-12);
        assert_eq!(g.collisions, 4);
        assert!(g.convergence.is_none());
    }

    #[test]
    fn serialization_omits_groups_when_absent_and_renders_them_when_present() {
        let tr = Trace::new();
        let mut r = tr.finish("p", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        let mut plain = String::new();
        r.serialize_json(&mut plain);
        assert!(plain.ends_with("\"convergence\":null}"), "no groups key at all: {plain}");
        assert!(!plain.contains("\"groups\""));
        r.groups = Some(vec![tr.group_stats(&GroupAccounting {
            group: 0,
            source: 0,
            members_initial: 0,
            members_final: 0,
            joins: 0,
            leaves: 0,
            energy_j: 0.0,
            overhear_energy_j: 0.0,
            collisions: 0,
        })]);
        let mut tagged = String::new();
        r.serialize_json(&mut tagged);
        assert!(tagged.contains("\"groups\":[{\"group\":0,"), "groups block renders: {tagged}");
    }

    #[test]
    fn serialization_omits_lifetime_when_absent_and_renders_it_when_present() {
        let tr = Trace::new();
        let mut r = tr.finish("p", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        let mut plain = String::new();
        r.serialize_json(&mut plain);
        assert!(!plain.contains("\"lifetime\""), "no lifetime key for unlimited runs: {plain}");
        let mut stats = LifetimeStats::empty(1.0, 4);
        stats.first_death_s = Some(12.0);
        stats.deaths = 1;
        stats.alive_final = 3;
        r.lifetime = Some(stats);
        let mut tagged = String::new();
        r.serialize_json(&mut tagged);
        assert!(
            tagged.contains("\"lifetime\":{\"sample_epoch_s\":1,\"first_death_s\":12,"),
            "lifetime block renders: {tagged}"
        );
    }

    #[test]
    fn serialization_omits_mac_when_absent_and_renders_it_when_present() {
        let tr = Trace::new();
        let mut r = tr.finish("p", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        let mut plain = String::new();
        r.serialize_json(&mut plain);
        assert!(!plain.contains("\"mac\""), "no mac key for default-policy runs: {plain}");
        let mut stats = MacStats::empty("csma");
        stats.frames_requested = 10;
        stats.frames_sent = 9;
        stats.mac_drops = 1;
        r.mac = Some(stats);
        let mut tagged = String::new();
        r.serialize_json(&mut tagged);
        assert!(
            tagged.contains("\"mac\":{\"policy\":\"csma\",\"frames_requested\":10,"),
            "mac block renders: {tagged}"
        );
        assert!(tagged.ends_with('}'));
    }

    #[test]
    fn serialization_omits_silence_when_absent_and_renders_it_when_present() {
        use ssmcast_metrics::SessionSilence;
        let tr = Trace::new();
        let mut r = tr.finish("p", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        let mut plain = String::new();
        r.serialize_json(&mut plain);
        assert!(!plain.contains("\"silence\""), "no silence key for suppression-off runs: {plain}");
        let session = SessionSilence {
            steady_control_packets: 7,
            steady_control_bytes: 168,
            recovery_control_packets: 1,
            recovery_control_bytes: 24,
        };
        r.silence = Some(SilenceStats::from_sessions(vec![session]));
        let mut tagged = String::new();
        r.serialize_json(&mut tagged);
        assert!(
            tagged.contains("\"silence\":{\"steady_control_packets\":7,"),
            "silence block renders: {tagged}"
        );
        assert!(tagged.ends_with('}'));
    }

    #[test]
    fn serialization_omits_engine_when_absent_and_renders_it_when_present() {
        let tr = Trace::new();
        let mut r = tr.finish("p", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        let mut plain = String::new();
        r.serialize_json(&mut plain);
        assert!(!plain.contains("\"engine\""), "no engine key when stats are off: {plain}");
        r.engine = Some(EngineStats::from_counts(2, vec![3, 5], 4, 6, 2.0));
        let mut tagged = String::new();
        r.serialize_json(&mut tagged);
        assert!(
            tagged.contains("\"engine\":{\"shards\":2,\"events_processed\":8,"),
            "engine block renders: {tagged}"
        );
        assert!(tagged.ends_with('}'));
    }

    #[test]
    fn absorb_merges_disjoint_trace_pieces_exactly() {
        // One trace that saw everything...
        let mut whole = Trace::new();
        whole.record_generated(0, SimTime::ZERO, 2);
        whole.record_generated(1, SimTime::from_secs_f64(1.5), 2);
        whole.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.010));
        whole.record_delivery(&tag(0, 0), NodeId(2), SimTime::from_secs_f64(0.020));
        whole.record_delivery(&tag(0, 0), NodeId(2), SimTime::from_secs_f64(0.030)); // dup
        whole.record_control_tx(100);
        whole.record_data_tx(512);
        // ...versus two shard-local pieces covering the same run.
        let mut a = Trace::new();
        a.record_generated(0, SimTime::ZERO, 2);
        a.record_generated(1, SimTime::from_secs_f64(1.5), 2);
        a.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.010));
        a.record_control_tx(100);
        a.record_data_tx(512);
        let mut b = Trace::new();
        b.record_delivery(&tag(0, 0), NodeId(2), SimTime::from_secs_f64(0.020));
        b.record_delivery(&tag(0, 0), NodeId(2), SimTime::from_secs_f64(0.030)); // dup
        a.absorb(&b);
        let merged = a.finish("p", SimDuration::from_secs(2), 0.5, 0.25, 3, 512);
        let direct = whole.finish("p", SimDuration::from_secs(2), 0.5, 0.25, 3, 512);
        assert_eq!(merged, direct);
    }

    #[test]
    fn exact_dedup_never_lapses_and_node_disjoint_pieces_merge_exactly() {
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        // The one intended difference between the modes: a receiver that gets seq 0
        // after seq 5 000 has lapsed streaming's 1024-sequence window.
        let mut exact = Trace::new();
        let mut streaming = Trace::with_config(&MetricsConfig::streaming());
        for tr in [&mut exact, &mut streaming] {
            tr.record_generated(0, at(0), 1);
            tr.record_generated(5_000, at(10), 1);
            tr.record_delivery(&tag(5_000, 10), NodeId(1), at(20));
            tr.record_delivery(&tag(0, 0), NodeId(1), at(30));
        }
        assert_eq!((exact.delivered_count(), exact.duplicate_deliveries), (2, 0));
        assert_eq!((streaming.delivered_count(), streaming.duplicate_deliveries), (1, 1));

        // Exact traces split into two node-disjoint pieces merge back to the unsplit one,
        // including the duplicate state: a late copy is a duplicate either way.
        let mut whole = Trace::new();
        let mut pieces = [Trace::new(), Trace::new()];
        for seq in [0u64, 3_000, 7, 9_000] {
            whole.record_generated(seq, at(seq), 3);
            pieces[0].record_generated(seq, at(seq), 3);
            for rx in 1..=3u32 {
                for copy in 0..2 {
                    let now = at(seq + u64::from(rx) + copy);
                    whole.record_delivery(&tag(seq, seq), NodeId(rx), now);
                    pieces[(rx % 2) as usize].record_delivery(&tag(seq, seq), NodeId(rx), now);
                }
            }
        }
        let [mut merged, odd] = pieces;
        merged.absorb(&odd);
        for tr in [&mut whole, &mut merged] {
            tr.record_delivery(&tag(7, 7), NodeId(1), at(9_500));
        }
        let finish = |tr: &Trace| tr.finish("p", SimDuration::from_secs(10), 0.5, 0.25, 0, 512);
        assert_eq!(finish(&merged), finish(&whole));
        assert_eq!(finish(&whole).delivered, 12);
        assert_eq!(finish(&whole).duplicate_deliveries, 13);
    }

    /// Drive one exact and one streaming trace through the same event sequence.
    fn mirrored_traces() -> (Trace, Trace) {
        let mut exact = Trace::new();
        let mut streaming = Trace::with_config(&MetricsConfig::streaming());
        for tr in [&mut exact, &mut streaming] {
            tr.record_generated(0, SimTime::ZERO, 2);
            tr.record_generated(1, SimTime::from_secs_f64(0.5), 2);
            tr.record_delivery(&tag(0, 0), NodeId(1), SimTime::from_secs_f64(0.010));
            tr.record_delivery(&tag(0, 0), NodeId(2), SimTime::from_secs_f64(0.030));
            tr.record_delivery(&tag(0, 0), NodeId(2), SimTime::from_secs_f64(0.040)); // dup
            tr.record_delivery(&tag(1, 500), NodeId(1), SimTime::from_secs_f64(0.520));
            tr.record_control_tx(100);
            tr.record_data_tx(512);
        }
        (exact, streaming)
    }

    #[test]
    fn streaming_trace_matches_exact_scalars_and_attaches_block() {
        let (exact, streaming) = mirrored_traces();
        let re = exact.finish("p", SimDuration::from_secs(1), 0.5, 0.1, 2, 512);
        let rs = streaming.finish("p", SimDuration::from_secs(1), 0.5, 0.1, 2, 512);
        // Every scalar the exact mode reports is bit-equal (the streaming block is the
        // only difference).
        assert_eq!(re.generated, rs.generated);
        assert_eq!(re.expected_deliveries, rs.expected_deliveries);
        assert_eq!(re.delivered, rs.delivered);
        assert_eq!(re.duplicate_deliveries, rs.duplicate_deliveries);
        assert_eq!(re.pdr.to_bits(), rs.pdr.to_bits());
        assert_eq!(re.avg_delay_ms.to_bits(), rs.avg_delay_ms.to_bits());
        assert_eq!(re.unavailability_ratio.to_bits(), rs.unavailability_ratio.to_bits());
        assert_eq!(re.control_bytes, rs.control_bytes);
        assert!(re.streaming.is_none());
        let block = rs.streaming.expect("streaming run attaches the block");
        // Exact delays: 10, 30, 20 ms → p50 within one 2 ms bin of 20 ms; max exact.
        assert!((block.latency_p50_ms - 20.0).abs() <= block.latency_bin_width_ms);
        assert!((block.latency_max_ms - 30.0).abs() < 1e-9);
        assert_eq!(block.latency_overflow, 0);
        assert!(block.report_bytes > 0);
    }

    #[test]
    fn streaming_absorb_merges_disjoint_pieces_exactly() {
        let cfg = MetricsConfig::streaming();
        let mut whole = Trace::with_config(&cfg);
        let mut a = Trace::with_config(&cfg);
        let mut b = Trace::with_config(&cfg);
        whole.record_generated(0, SimTime::ZERO, 2);
        a.record_generated(0, SimTime::ZERO, 2);
        for (piece, rx, ms) in [(0usize, 1u32, 10u64), (1, 2, 20), (1, 2, 25)] {
            let target = if piece == 0 { &mut a } else { &mut b };
            whole.record_delivery(&tag(0, 0), NodeId(rx), SimTime::from_secs_f64(ms as f64 / 1e3));
            target.record_delivery(&tag(0, 0), NodeId(rx), SimTime::from_secs_f64(ms as f64 / 1e3));
        }
        a.absorb(&b);
        let merged = a.finish("p", SimDuration::from_secs(1), 0.5, 0.25, 0, 512);
        let direct = whole.finish("p", SimDuration::from_secs(1), 0.5, 0.25, 0, 512);
        assert_eq!(merged, direct);
    }

    #[test]
    fn serialization_omits_streaming_when_absent_and_renders_it_when_present() {
        let (exact, streaming) = mirrored_traces();
        let plain_report = exact.finish("p", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        let mut plain = String::new();
        plain_report.serialize_json(&mut plain);
        assert!(!plain.contains("\"streaming\""), "no streaming key in exact mode: {plain}");
        let streaming_report = streaming.finish("p", SimDuration::from_secs(1), 0.0, 0.0, 0, 512);
        let mut tagged = String::new();
        streaming_report.serialize_json(&mut tagged);
        assert!(
            tagged.contains("\"streaming\":{\"latency_bin_width_ms\":2,"),
            "streaming block renders: {tagged}"
        );
        assert!(tagged.ends_with('}'));
    }
}
