//! Streaming-vs-exact equivalence: `MetricsConfig::Streaming` gives the report layer's
//! sketches fixed budgets where exact mode gives them none, and this suite pins down
//! exactly what that trade preserves.
//!
//! * Every scalar the exact mode reports — PDR, mean latency, energy totals,
//!   time-to-first-death — is **bit-equal** between modes: both accumulate them in the
//!   shared integer/FP counters on `Trace`; the budgets only bound the sketches.
//! * Histogram quantiles are approximate by construction, but the error law is fixed:
//!   within one bin width of the exact order statistic, checked on known delays.
//! * Streaming reports stay deterministic for a seed and invariant across neighbor-query
//!   modes and shard counts ∈ {1, 2, 8} — the sketch merges coarsen to
//!   content-determined levels, so merge order cannot leak into the bytes.
//! * The report layer's memory is bounded by configuration, not by event count: a
//!   synthetic horizon long enough to matter shows ≥ 10× less trace memory.

use ssmcast::core::MetricKind;
use ssmcast::dessim::{SimDuration, SimTime};
use ssmcast::manet::{DataTag, GroupId, NodeId, Trace};
use ssmcast::scenario::{run_protocol, MetricsConfig, ProtocolKind, Scenario};

/// A scenario with enough physics to exercise every scalar under test: finite batteries
/// plus idle drain (lifetime block, time-to-first-death), real traffic (latency,
/// duplicates), collisions and control overhead.
fn base_scenario() -> Scenario {
    let mut s = Scenario::quick_test();
    s.duration_s = 30.0;
    s.warmup_s = 2.0;
    s.with_battery_capacity(3.0).with_idle_power(5e-3, 1e-4)
}

fn report(s: &Scenario, kind: ProtocolKind) -> ssmcast::manet::SimReport {
    run_protocol(s, kind.to_protocol().as_ref())
}

#[test]
fn scalar_metrics_are_bit_equal_between_modes() {
    for kind in
        [ProtocolKind::Flooding, ProtocolKind::SsSpst(MetricKind::EnergyAware), ProtocolKind::Odmrp]
    {
        let exact = report(&base_scenario().with_metrics(MetricsConfig::exact()), kind);
        let streaming = report(&base_scenario().with_metrics(MetricsConfig::streaming()), kind);
        assert_eq!(exact.generated, streaming.generated);
        assert_eq!(exact.expected_deliveries, streaming.expected_deliveries);
        assert_eq!(exact.delivered, streaming.delivered);
        assert_eq!(exact.duplicate_deliveries, streaming.duplicate_deliveries);
        assert_eq!(exact.pdr.to_bits(), streaming.pdr.to_bits(), "{kind:?}: pdr drifted");
        assert_eq!(
            exact.avg_delay_ms.to_bits(),
            streaming.avg_delay_ms.to_bits(),
            "{kind:?}: mean latency drifted"
        );
        assert_eq!(exact.total_energy_j.to_bits(), streaming.total_energy_j.to_bits());
        assert_eq!(exact.overhear_energy_j.to_bits(), streaming.overhear_energy_j.to_bits());
        assert_eq!(
            exact.energy_per_delivered_mj.to_bits(),
            streaming.energy_per_delivered_mj.to_bits()
        );
        assert_eq!(exact.control_packets, streaming.control_packets);
        assert_eq!(exact.control_bytes, streaming.control_bytes);
        assert_eq!(exact.data_packets_tx, streaming.data_packets_tx);
        assert_eq!(exact.collisions, streaming.collisions);
        let (el, sl) = (exact.lifetime.as_ref().unwrap(), streaming.lifetime.as_ref().unwrap());
        assert_eq!(el.first_death_s, sl.first_death_s, "{kind:?}: time-to-first-death drifted");
        assert_eq!(el.deaths, sl.deaths);
        assert_eq!(el.alive_final, sl.alive_final);
        // The only report difference is the block that says which mode ran.
        assert!(exact.streaming.is_none(), "exact mode must not attach a streaming block");
        assert!(streaming.streaming.is_some(), "streaming mode must attach its block");
    }
}

#[test]
fn unavailability_matches_when_the_window_ledger_stays_uncoarsened() {
    // With a window budget comfortably above the run's traffic-window count the bounded
    // ledger never coarsens, so even the windowed metric is bit-equal.
    let exact = report(&base_scenario(), ProtocolKind::Flooding);
    let streaming =
        report(&base_scenario().with_metrics(MetricsConfig::streaming()), ProtocolKind::Flooding);
    let block = streaming.streaming.as_ref().unwrap();
    assert_eq!(block.window_level, 0, "this run must fit the default window budget");
    assert_eq!(exact.unavailability_ratio.to_bits(), streaming.unavailability_ratio.to_bits());
}

#[test]
fn histogram_quantiles_sit_within_one_bin_of_exact_order_statistics() {
    // Known delays, one fresh delivery each, plus late duplicate copies that must not be
    // binned: they would drag the maximum and the upper quantiles out to 900 ms.
    let mut tr = Trace::with_config(&MetricsConfig::streaming());
    let mut delays_ns = Vec::new();
    let mut state = 7u64;
    for seq in 0..400u64 {
        let t = SimTime::from_secs_f64(seq as f64 * 0.25);
        let tag = DataTag { group: GroupId(0), origin: NodeId(0), seq, created_at: t };
        tr.record_generated(seq, t, 1);
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let delay = SimDuration::from_nanos((state >> 33) % 300_000_000);
        delays_ns.push(delay.as_nanos());
        tr.record_delivery(&tag, NodeId(1), t + delay);
        if seq % 4 == 0 {
            tr.record_delivery(&tag, NodeId(1), t + SimDuration::from_millis(900));
        }
    }
    delays_ns.sort_unstable();
    let r = tr.finish("p", SimDuration::from_secs(100), 0.0, 0.0, 0, 512);
    assert_eq!((r.delivered, r.duplicate_deliveries), (400, 100));
    let block = r.streaming.expect("streaming run attaches the block");
    assert_eq!(block.latency_overflow, 0);
    let order_statistic_ms = |q: f64| {
        let rank = ((q * delays_ns.len() as f64).ceil() as usize).clamp(1, delays_ns.len());
        delays_ns[rank - 1] as f64 / 1e6
    };
    for (q, est) in [(0.50, block.latency_p50_ms), (0.95, block.latency_p95_ms)] {
        let exact = order_statistic_ms(q);
        assert!(
            (est - exact).abs() <= block.latency_bin_width_ms,
            "p{}: {est} ms vs exact {exact} ms exceeds one bin",
            q * 100.0
        );
    }
    // The maximum is tracked exactly, independent of binning.
    assert_eq!(block.latency_max_ms.to_bits(), (delays_ns[399] as f64 / 1e6).to_bits());
}

#[test]
fn streaming_runs_are_deterministic_and_query_mode_invariant() {
    let render = |s: &Scenario| {
        serde_json::to_string(&report(s, ProtocolKind::Flooding)).expect("reports serialize")
    };
    let grid = base_scenario().with_metrics(MetricsConfig::streaming());
    let mut brute = base_scenario().with_metrics(MetricsConfig::streaming());
    brute.medium = ssmcast::manet::MediumConfig::brute_force();
    let first = render(&grid);
    assert_eq!(first, render(&grid), "same seed, same streaming bytes");
    assert_eq!(first, render(&brute), "neighbor-query mode leaked into the streaming report");
}

#[test]
fn streaming_reports_are_shard_count_invariant() {
    // Churned multi-group on the sharded engine: the hardest merge path — per-shard
    // trace pieces absorb into per-session sketches, then sessions fold into the
    // aggregate histogram. Every shard count must serialize the same bytes.
    let mut s = Scenario::quick_test().with_groups(2).with_churn_rate(0.3);
    s.duration_s = 25.0;
    s = s.with_metrics(MetricsConfig::streaming());
    let rendered = |shards: u32| {
        let sharded = s.with_shards(shards);
        serde_json::to_string(&report(&sharded, ProtocolKind::Flooding)).expect("reports serialize")
    };
    let baseline = rendered(1);
    assert!(baseline.contains("\"streaming\""), "sharded streaming run must attach the block");
    for shards in [2, 8] {
        assert_eq!(baseline, rendered(shards), "streaming report diverged at {shards} shards");
    }
}

#[test]
fn streaming_trace_memory_is_at_least_10x_below_exact_on_long_horizons() {
    // A week-long telemetry session in miniature: 50 000 packets, three receivers each.
    // Exact mode retains one map entry per packet and one set entry per delivery;
    // streaming holds the same story in fixed-budget sketches.
    let mut exact = Trace::new();
    let mut streaming = Trace::with_config(&MetricsConfig::streaming());
    for seq in 0..50_000u64 {
        let t = SimTime::from_secs_f64(seq as f64 * 0.5);
        let tag = DataTag { group: GroupId(0), origin: NodeId(0), seq, created_at: t };
        for tr in [&mut exact, &mut streaming] {
            tr.record_generated(seq, t, 3);
            for rx in 1..=3u32 {
                tr.record_delivery(&tag, NodeId(rx), t + SimDuration::from_millis(u64::from(rx)));
            }
        }
    }
    // Both modes tell the same scalar story...
    assert_eq!(exact.generated_count(), streaming.generated_count());
    assert_eq!(exact.delivered_count(), streaming.delivered_count());
    // ...but the exact trace's memory grew with the horizon while the sketches did not.
    let (e, s) = (exact.approx_mem_bytes(), streaming.approx_mem_bytes());
    assert!(e >= 10 * s, "exact trace holds {e} bytes, streaming {s}: less than the 10x bound");
}
