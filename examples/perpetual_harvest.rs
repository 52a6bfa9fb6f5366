//! Perpetual operation: a week of simulated time at n = 10 000 in bounded memory.
//!
//! Every node runs on a small battery with a continuous idle-listen drain, so the
//! whole fleet would be dead within the first few simulated hours — but each node also
//! harvests energy from its environment at a seeded per-node rate and, once depleted,
//! sits dark until it has banked a quarter of its capacity (harvest-until-threshold),
//! then wakes and rejoins the multicast. The network settles into a sustainable duty
//! cycle: the question stops being "when does the first node die" and becomes "what
//! delivery ratio does the harvest income sustain" — the regime the streaming metrics
//! mode exists for.
//!
//! Report accumulation runs in `Streaming` mode: fixed-bin latency histograms, bounded
//! delivery-window ledgers and downsampling curve rings hold the report layer at a
//! fixed footprint regardless of horizon, where exact mode's unbudgeted ledger, dedup
//! bitmaps and per-epoch curves would grow with the week. The example prints the process peak RSS
//! (`/proc/self/status` VmHWM) so the bound is a measured number, not a promise
//! (EXPERIMENTS.md records the reference run).
//!
//! The bound covers the whole process, not just the report layer: the event queue, the
//! medium, per-node batteries and lifecycle state, and each flooding agent's duplicate
//! filter. That filter is a [`ssmcast::manet::SeqSet`], one bit per data sequence, so
//! it is the one part that still grows with the horizon: the week's 2016 packets cost
//! each node 256 bytes, 2.5 MB across the fleet. CI runs the full scale and fails if
//! the printed peak RSS exceeds 24 MiB.
//!
//! Run with `cargo run --release --example perpetual_harvest`. `SSMCAST_SCALE` shrinks
//! the fleet and the horizon together for smoke runs (CI uses 0.2); at full scale the
//! run simulates 7 × 24 h at n = 10k in seconds of wall time.

use std::time::Instant;

use ssmcast::baselines::FloodingAgent;
use ssmcast::dessim::{SeedSequence, SimDuration};
use ssmcast::manet::{HarvestConfig, MediumConfig, NetworkSim, NodeId};
use ssmcast::scenario::{build_mobility, build_setup, MetricsConfig, MobilityKind, Scenario};

const WEEK_S: f64 = 7.0 * 24.0 * 3600.0;

/// Peak resident set size so far, bytes (`/proc/self/status` VmHWM; Linux only).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn scenario(scale: f64) -> Scenario {
    let mut s = Scenario::paper_default();
    s.n_nodes = ((10_000.0 * scale) as usize).max(100);
    // Field scaled with √n keeps ≈ 13 neighbours per node at 250 m range.
    s.area_side_m = 4_200.0 * (s.n_nodes as f64 / 1_200.0).sqrt();
    s.group_size = 50;
    // The horizon shrinks with scale² so smoke runs stay cheap in events, not just
    // in nodes; full scale is a calendar week of simulated time.
    s.duration_s = WEEK_S * scale * scale;
    s.warmup_s = 30.0;
    // One 512-byte packet every ~300 s: perpetual telemetry, not a saturating flood.
    s.data_rate_bps = 512.0 * 8.0 / 300.0;
    s.mobility = MobilityKind::StaticGrid;
    s.medium = MediumConfig::default().with_epoch(SimDuration::from_millis(500));
    // 5 J batteries with a 1 mW idle-listen floor: ~5000 s from full to dark. Nodes
    // harvest 0.5–2 mW and wake after banking 25% of capacity, so each settles into
    // an individual awake/dark duty cycle of roughly an hour.
    let s = s.with_battery_capacity(5.0).with_idle_power(1e-3, 0.0);
    let mut s = s.with_harvest(HarvestConfig::on(0.5e-3, 2.0e-3, 0.25));
    s.lifecycle.sample_epoch = SimDuration::from_secs(60);
    // The point of the exercise: memory-bounded report accumulation.
    s.with_metrics(MetricsConfig::streaming())
}

fn main() {
    let (scale, _) = ssmcast::scenario::scale_and_reps_from_env(1.0, 1);
    let s = scenario(scale);
    println!(
        "perpetual harvest: n = {}, {:.1} h simulated, battery {} J, streaming metrics",
        s.n_nodes,
        s.duration_s / 3600.0,
        s.battery_capacity_j,
    );
    let seeds = SeedSequence::new(s.seed);
    let setup = build_setup(&s, seeds);
    let mobility = build_mobility(&s, &seeds);
    let agents = (0..s.n_nodes).map(|_| FloodingAgent::new()).collect();
    let mut sim = NetworkSim::new(setup, mobility, agents);
    let start = Instant::now();
    let report = sim.run(SimDuration::from_secs_f64(s.duration_s));
    let wall = start.elapsed();

    let harvested: f64 = (0..s.n_nodes).map(|i| sim.battery(NodeId(i as u32)).harvested()).sum();
    println!(
        "done in {wall:.1?}: generated {}, delivered {} (pdr {:.3}), mean delay {:.2} ms",
        report.generated, report.delivered, report.pdr, report.avg_delay_ms
    );
    println!(
        "energy: {:.1} J consumed, {:.1} J harvested back across the fleet",
        report.total_energy_j, harvested
    );
    if let Some(lifetime) = &report.lifetime {
        println!(
            "lifetime: first depletion at {} s, {} of {} nodes awake at the horizon, \
             {} curve points (epoch {:.0} s after downsampling)",
            lifetime.first_death_s.map(|t| format!("{t:.0}")).unwrap_or_else(|| "—".into()),
            lifetime.alive_final,
            s.n_nodes,
            lifetime.alive_curve.len(),
            lifetime.sample_epoch_s,
        );
    }
    if let Some(streaming) = &report.streaming {
        println!(
            "report layer: {} bytes of sketch state (p50 {:.2} ms, p95 {:.2} ms, \
             window ledger level {} holding {} blocks)",
            streaming.report_bytes,
            streaming.latency_p50_ms,
            streaming.latency_p95_ms,
            streaming.window_level,
            streaming.window_blocks,
        );
    }
    match peak_rss_bytes() {
        Some(rss) => println!("peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0)),
        None => println!("peak RSS: unavailable on this platform"),
    }
}
