//! Scaling demonstration: blind flooding at large n, sequential and sharded.
//!
//! Runs the flood at a chosen node count (default 1200) under one or more engine
//! configurations (`0` = the sequential engine, `k > 0` = the region-sharded engine with
//! `k` worker threads; default `0 8` when a node count is given, `0` when none is) and
//! prints wall-clock time, events/sec and delivery statistics for each, plus the speedup
//! of every later run over the first:
//!
//! ```text
//! cargo run --release --example large_flood                 # n=1200, sequential
//! cargo run --release --example large_flood -- 20000 0 8    # n=20k, sequential vs 8 shards
//! cargo run --release --example large_flood -- 100000 8     # n=100k on 8 shards
//! ```
//!
//! The field is scaled with √n to hold node density (≈ 13 neighbours at 250 m range)
//! constant, so per-node work stays comparable across n.

use std::time::Instant;

use ssmcast::baselines::FloodingAgent;
use ssmcast::dessim::{SeedSequence, SimDuration};
use ssmcast::manet::{MediumConfig, NetworkSim};
use ssmcast::scenario::{build_mobility, build_setup, Scenario};

/// Blind flooding over `n` nodes with a short CBR burst — the broadcast-heavy worst case
/// for the medium layer. The field is 4.2 km × 4.2 km at n = 1200; simulated time
/// shortens at very large n so the n = 100k configuration finishes in minutes.
fn scaled_scenario(n: usize) -> Scenario {
    let mut s = Scenario::paper_default();
    s.n_nodes = n;
    s.area_side_m = 4_200.0 * (n as f64 / 1_200.0).sqrt();
    s.group_size = 50;
    s.duration_s = 3.0;
    s.warmup_s = 0.5;
    s.max_speed_mps = 10.0;
    // Cache positions per 200 ms epoch, which engages the medium's grid index.
    s.medium = MediumConfig::default().with_epoch(SimDuration::from_millis(200));
    if n >= 50_000 {
        s.duration_s = 1.0;
        s.warmup_s = 0.2;
    }
    s
}

fn run_once(s: &Scenario, label: &str) -> f64 {
    let seeds = SeedSequence::new(s.seed);
    let setup = build_setup(s, seeds);
    let mobility = build_mobility(s, &seeds);
    let agents = (0..s.n_nodes).map(|_| FloodingAgent::new()).collect();
    let mut sim = NetworkSim::new(setup, mobility, agents);
    let start = Instant::now();
    let report = sim.run(SimDuration::from_secs_f64(s.duration_s));
    let wall = start.elapsed();
    let engine = report.engine.as_ref().expect("stats-on run attaches an engine block");
    let events = engine.events_processed;
    let rate = events as f64 / wall.as_secs_f64();
    println!(
        "{label:<22} {events:>10} events in {:>8.1?}  →  {rate:>10.0} events/s   \
         (generated {}, pdr {:.3})",
        wall, report.generated, report.pdr
    );
    wall.as_secs_f64()
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("expected an integer, got {a:?}")))
        .collect();
    let (n, shard_counts) = match args.split_first() {
        None => (1_200, vec![0]),
        Some((&n, [])) => (n, vec![0, 8]),
        Some((&n, rest)) => (n, rest.to_vec()),
    };
    let s = scaled_scenario(n);
    println!(
        "flooding, n = {}, {:.0} m field, {:.1} s simulated",
        s.n_nodes, s.area_side_m, s.duration_s
    );
    let mut first_wall: Option<f64> = None;
    for &k in &shard_counts {
        let label = if k == 0 { "sequential".to_string() } else { format!("{k} shards") };
        let mut run = s;
        if k > 0 {
            run = run.with_shards(k as u32);
        }
        run.engine = run.engine.with_stats();
        let wall = run_once(&run, &label);
        match first_wall {
            None => first_wall = Some(wall),
            Some(base) => println!("{:<22} {:.2}x vs the first run", "  speedup", base / wall),
        }
    }
}
