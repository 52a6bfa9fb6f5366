//! The benchmark's workloads and the code that runs one sample of each.
//!
//! A sample is one workload run: every simulation the workload needs, from `Scenario`
//! to checked reports. Untraced samples run the plain library types; traced samples run
//! the same simulations through the wrappers in [`crate::trace`] and must produce the
//! same reports.

use crate::trace::{AgentTally, CountedMobility, MobilityTotals, TimedProbe, Timing, Traced};
use ssmcast_baselines::{FloodingAgent, MaodvAgent, OdmrpAgent};
use ssmcast_core::{MetricKind, MetricParams, SsSpstAgent, SsSpstConfig, StabilizationProbe};
use ssmcast_dessim::{SeedSequence, SimDuration};
use ssmcast_manet::{
    BoxedMobility, HarvestConfig, MediumConfig, NetworkSim, NodeId, ProtocolAgent, SimReport,
    SimSetup, StabilizationObserver,
};
use ssmcast_scenario::{
    base_scenario_for, build_mobility, build_setup, derive_cell_seed, run_protocol, Experiment,
    FigureId, FigureSpec, MetricsConfig, MobilityKind, Protocol, ProtocolKind, Scenario,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Inputs per workload: the benchmark's `--seed n` selects input `n % SEED_VARIANTS`.
pub const SEED_VARIANTS: usize = 16;

/// An input is accepted only if its event count lies within this share of the count at
/// the scenario's pinned seed, so seed-to-seed spread measures the host rather than
/// the input size (the source's seeded harvest rate alone moves `perpetual_harvest`'s
/// event count by 1.8x across seeds).
pub const EVENT_BAND: f64 = 0.02;

/// The `FigFaults` preset's 180 s horizon is scaled by this (floored at the preset's
/// 30 s minimum), so one grid of 16 cells takes under a second of host time.
const FAULTS_SCALE: f64 = 0.5;

/// Simulated seconds of the 20k-node flood (0.5 s warm-up, then CBR traffic).
const FLOOD_HORIZON_S: f64 = 1.5;

/// Scale of `examples/perpetual_harvest.rs`'s scenario: the fleet shrinks with the
/// scale and the horizon with its square.
const HARVEST_SCALE: f64 = 0.4;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `FigFaults` preset grid through `Experiment` on one thread.
    FigFaults,
    /// Blind flooding at n = 20 000 on the sequential engine.
    Flood20k,
    /// The same flood on the sharded engine with two shards.
    Flood20kShards2,
    /// The same flood on the sharded engine with one shard (baseline recording only).
    Flood20kShards1,
    /// Static, low-traffic, harvest-powered network with streaming metrics.
    PerpetualHarvest,
}

impl Workload {
    /// Every workload, in the order `pin` records them.
    pub const ALL: [Workload; 5] = [
        Workload::FigFaults,
        Workload::Flood20k,
        Workload::Flood20kShards2,
        Workload::Flood20kShards1,
        Workload::PerpetualHarvest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigFaults => "fig_faults",
            Workload::Flood20k => "flood_20k",
            Workload::Flood20kShards2 => "flood_20k_shards2",
            Workload::Flood20kShards1 => "flood_20k_shards1",
            Workload::PerpetualHarvest => "perpetual_harvest",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The scenario's pinned seed: input 0 of every workload.
pub fn pinned_seed() -> u64 {
    Scenario::paper_default().seed
}

/// The `FigFaults` preset grid: base scenario and spec.
fn faults_grid(seed: u64) -> (Scenario, FigureSpec) {
    let spec = FigureId::FigFaults.spec();
    let mut base = base_scenario_for(&spec);
    base.duration_s = (base.duration_s * FAULTS_SCALE).max(30.0);
    base.seed = seed;
    (base, spec)
}

/// `examples/large_flood.rs`'s `scaled_scenario(20000)` at a shorter horizon; `shards`
/// 0 keeps the sequential engine. Sharded runs report their event count only through
/// the engine block, so they always attach it.
fn flood_scenario(seed: u64, shards: u32) -> Scenario {
    let n = 20_000;
    let mut s = Scenario::paper_default();
    s.n_nodes = n;
    s.area_side_m = 4_200.0 * (n as f64 / 1_200.0).sqrt();
    s.group_size = 50;
    s.duration_s = FLOOD_HORIZON_S;
    s.warmup_s = 0.5;
    s.max_speed_mps = 10.0;
    s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(200));
    s.seed = seed;
    if shards > 0 {
        s = s.with_shards(shards);
        s.engine = s.engine.with_stats();
    }
    s
}

/// `examples/perpetual_harvest.rs`'s scenario at [`HARVEST_SCALE`].
fn harvest_scenario(seed: u64) -> Scenario {
    let scale = HARVEST_SCALE;
    let mut s = Scenario::paper_default();
    s.n_nodes = ((10_000.0 * scale) as usize).max(100);
    s.area_side_m = 4_200.0 * (s.n_nodes as f64 / 1_200.0).sqrt();
    s.group_size = 50;
    s.duration_s = 7.0 * 24.0 * 3600.0 * scale * scale;
    s.warmup_s = 30.0;
    s.data_rate_bps = 512.0 * 8.0 / 300.0;
    s.mobility = MobilityKind::StaticGrid;
    s.medium = MediumConfig::grid().with_epoch(SimDuration::from_millis(500));
    let s = s.with_battery_capacity(5.0).with_idle_power(1e-3, 0.0);
    let mut s = s.with_harvest(HarvestConfig::on(0.5e-3, 2.0e-3, 0.25));
    s.lifecycle.sample_epoch = SimDuration::from_secs(60);
    s.seed = seed;
    s.with_metrics(MetricsConfig::streaming())
}

/// The single scenario of a one-simulation workload.
fn single_scenario(workload: Workload, seed: u64) -> Scenario {
    match workload {
        Workload::Flood20k => flood_scenario(seed, 0),
        Workload::Flood20kShards2 => flood_scenario(seed, 2),
        Workload::Flood20kShards1 => flood_scenario(seed, 1),
        Workload::PerpetualHarvest => harvest_scenario(seed),
        Workload::FigFaults => unreachable!("fig_faults is a grid, not a single scenario"),
    }
}

/// Per-layer tallies of one sample, summed over its simulations. Only traced samples
/// fill the wrapper tallies and the set-up stage split.
#[derive(Debug, Default)]
pub struct Layers {
    /// `build_setup` host seconds.
    pub build_setup_s: f64,
    /// `build_mobility` host seconds.
    pub build_mobility_s: f64,
    /// Agent construction host seconds.
    pub agents_s: f64,
    /// `NetworkSim::new` host seconds.
    pub sim_new_s: f64,
    /// Agent callbacks.
    pub agent: AgentTally,
    /// `Mobility::position_at` calls.
    pub mobility: Timing,
    /// Stabilization-probe calls.
    pub probe: Timing,
    /// Largest pending-event count of any queue (engine block).
    pub peak_queue_depth: u64,
    /// Synchronization windows of the sharded engine (engine block).
    pub sync_rounds: u64,
    /// Largest shard load imbalance (engine block; 1.0 for the sequential engine).
    pub imbalance: f64,
    /// Host seconds of a repeated `NetworkSim::report` after each run.
    pub report_finish_s: f64,
    /// Streaming-sketch bytes of the report layer.
    pub streaming_bytes: u64,
    /// Collided receptions.
    pub collisions: u64,
    /// Control packets transmitted.
    pub control_packets: u64,
}

/// What one simulation produced and cost.
struct CellOut {
    /// The report, engine block removed (it holds wall-clock rates).
    report: SimReport,
    events: u64,
    /// Host seconds before the simulation was ready (caller adds scenario building).
    setup_s: f64,
    simulate_s: f64,
    errors: Vec<String>,
    layers: Layers,
}

/// One measured workload run.
pub struct Sample {
    /// Host seconds for the whole run: set-up, simulation and reports.
    pub wall_s: f64,
    /// Host seconds from `Scenario` to ready `NetworkSim`s, summed over simulations.
    pub setup_s: f64,
    /// Host seconds inside `NetworkSim::run` / `run_probed`, summed.
    pub simulate_s: f64,
    /// Host seconds of each simulation (cell), set-up included.
    pub cells_s: Vec<f64>,
    /// Events processed, summed over simulations.
    pub events: u64,
    /// FNV-1a digest of the serialized reports, in grid order.
    pub digest: u64,
    /// Correctness violations; empty when the run passed every check.
    pub errors: Vec<String>,
    /// Per-layer tallies (traced samples only).
    pub layers: Layers,
}

/// FNV-1a over each report's serialized bytes, chained across reports.
pub fn digest_reports<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for report in reports {
        let json = serde_json::to_string(report).expect("a report always serializes");
        for b in json.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The SS-SPST configuration a scenario implies (as the scenario crate's protocol
/// registry builds it; the pinned digests come from that registry and check this).
fn ss_spst_config(s: &Scenario, kind: MetricKind) -> SsSpstConfig {
    SsSpstConfig {
        params: MetricParams { energy: s.radio.energy, data_packet_bytes: s.packet_size_bytes },
        silence: s.silence,
        ..SsSpstConfig::with_beacon_interval(kind, SimDuration::from_secs_f64(s.beacon_interval_s))
    }
}

/// Whether the harness drives this scenario through a stabilization probe, and at what
/// cadence (the same rule as the scenario crate's protocol runner).
fn probe_epoch(s: &Scenario) -> Option<SimDuration> {
    (s.faults.has_faults() || s.has_group_dynamics())
        .then(|| SimDuration::from_secs_f64(s.faults.probe_epoch_s.max(0.05)))
}

/// Run one simulation of `kind`'s agents.
fn run_cell(
    kind: ProtocolKind,
    s: &Scenario,
    setup: SimSetup,
    mobility: Vec<BoxedMobility>,
    traced: bool,
) -> CellOut {
    match kind {
        ProtocolKind::SsSpst(metric) => {
            let config = ss_spst_config(s, metric);
            run_agents(s, setup, mobility, traced, move || SsSpstAgent::new(config))
        }
        ProtocolKind::Maodv => run_agents(s, setup, mobility, traced, MaodvAgent::with_defaults),
        ProtocolKind::Odmrp => run_agents(s, setup, mobility, traced, OdmrpAgent::with_defaults),
        ProtocolKind::Flooding => run_agents(s, setup, mobility, traced, FloodingAgent::new),
        other => unreachable!("no workload runs {}", other.name()),
    }
}

/// Run one simulation with plain agents, or with every layer wrapped when `traced`.
fn run_agents<A: ProtocolAgent + 'static>(
    s: &Scenario,
    setup: SimSetup,
    mobility: Vec<BoxedMobility>,
    traced: bool,
    make: impl Fn() -> A,
) -> CellOut {
    let epoch = probe_epoch(s);
    if !traced {
        let mut probe = epoch.map(StabilizationProbe::new);
        let observer = probe.as_mut().map(|p| p as &mut dyn StabilizationObserver);
        return simulate(s, setup, mobility, make, observer, |_, _, _| {});
    }
    let totals = Arc::new(MobilityTotals::default());
    let mobility = CountedMobility::wrap_all(mobility, &totals);
    let mut probe = epoch.map(|e| TimedProbe::new(StabilizationProbe::new(e)));
    let observer = probe.as_mut().map(|p| p as &mut dyn StabilizationObserver);
    let horizon = SimDuration::from_secs_f64(s.duration_s);
    let mut out = simulate(
        s,
        setup,
        mobility,
        || Traced::new(make()),
        observer,
        |sim, sessions, out| {
            for session in 0..sessions {
                for i in 0..s.n_nodes {
                    out.layers.agent.add(sim.agent_in(session, NodeId(i as u32)).tally());
                }
            }
            let start = Instant::now();
            std::hint::black_box(sim.report(horizon));
            out.layers.report_finish_s = start.elapsed().as_secs_f64();
        },
    );
    // The simulation (and with it every mobility wrapper) is dropped by now.
    out.layers.mobility = totals.timing();
    if let Some(p) = &probe {
        out.layers.probe = p.timing;
    }
    out
}

/// Build agents and the simulation, run it, check the report, and let `inspect` read
/// the finished simulation (and its session count) before it is dropped.
fn simulate<A: ProtocolAgent>(
    s: &Scenario,
    setup: SimSetup,
    mobility: Vec<BoxedMobility>,
    make: impl Fn() -> A,
    probe: Option<&mut dyn StabilizationObserver>,
    inspect: impl FnOnce(&NetworkSim<A>, usize, &mut CellOut),
) -> CellOut {
    let n = setup.n_nodes();
    let sessions = setup.n_sessions();
    let horizon = SimDuration::from_secs_f64(s.duration_s);
    let t0 = Instant::now();
    let agents: Vec<A> = (0..sessions * n).map(|_| make()).collect();
    let t1 = Instant::now();
    let mut sim = NetworkSim::new(setup, mobility, agents);
    let t2 = Instant::now();
    let mut report = match probe {
        Some(observer) => sim.run_probed(horizon, observer),
        None => sim.run(horizon),
    };
    let t3 = Instant::now();
    let engine = report.engine.take();
    let events = engine.as_ref().map_or_else(|| sim.events_processed(), |e| e.events_processed);
    let errors = check(&sim, &report, n, sessions);
    let mut layers = Layers {
        agents_s: (t1 - t0).as_secs_f64(),
        sim_new_s: (t2 - t1).as_secs_f64(),
        imbalance: 1.0,
        streaming_bytes: report.streaming.as_ref().map_or(0, |st| st.report_bytes),
        collisions: report.collisions,
        control_packets: report.control_packets,
        ..Layers::default()
    };
    if let Some(e) = &engine {
        layers.peak_queue_depth = e.peak_queue_depth;
        layers.sync_rounds = e.sync_rounds;
        layers.imbalance = e.imbalance_ratio;
    }
    let mut out = CellOut {
        report,
        events,
        setup_s: (t2 - t0).as_secs_f64(),
        simulate_s: (t3 - t2).as_secs_f64(),
        errors,
        layers,
    };
    inspect(&sim, sessions, &mut out);
    out
}

/// The per-run correctness gate: delivery bounds and energy conservation.
fn check<A: ProtocolAgent>(
    sim: &NetworkSim<A>,
    report: &SimReport,
    n: usize,
    sessions: usize,
) -> Vec<String> {
    let mut errors = Vec::new();
    if !(0.0..=1.0).contains(&report.pdr) {
        errors.push(format!("pdr {} outside [0, 1]", report.pdr));
    }
    if report.delivered > report.expected_deliveries {
        errors.push(format!(
            "delivered {} > expected {}",
            report.delivered, report.expected_deliveries
        ));
    }
    // Every joule a battery gave up was booked to a session's frames, to continuous
    // idle/sleep drain, or to an injected drain spike.
    let attributed: f64 = (0..sessions).map(|s| sim.session_energy_j(s)).sum();
    let drains: f64 = (0..n)
        .map(|i| {
            let b = sim.battery(NodeId(i as u32));
            b.idle_listened() + b.slept() + b.drained()
        })
        .sum();
    let total = report.total_energy_j;
    if !total.is_finite() || (attributed + drains - total).abs() > 1e-9 * total.max(1.0) {
        errors
            .push(format!("energy: sessions {attributed} + drains {drains} != batteries {total}"));
    }
    errors
}

/// The `Protocol` the untraced `fig_faults` grid hands to `Experiment`. It runs the
/// same agents as the builtin factory, and books each job's time: the gap since the
/// previous job ended is the experiment's own seed derivation, `build_setup` and
/// `build_mobility` for this job (one worker thread runs the jobs back to back).
struct GridProtocol {
    kind: ProtocolKind,
    log: Arc<Mutex<GridLog>>,
}

struct GridLog {
    last_end: Instant,
    cells: Vec<(CellOut, f64)>,
}

impl Protocol for GridProtocol {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn run(&self, s: &Scenario, setup: SimSetup, mobility: Vec<BoxedMobility>) -> SimReport {
        let entered = Instant::now();
        let since = self.log.lock().expect("grid log lock").last_end;
        let mut out = run_cell(self.kind, s, setup, mobility, false);
        out.setup_s += (entered - since).as_secs_f64();
        let report = out.report.clone();
        let mut log = self.log.lock().expect("grid log lock");
        let cell_s = since.elapsed().as_secs_f64();
        log.cells.push((out, cell_s));
        log.last_end = Instant::now();
        report
    }
}

/// Run one sample of `workload`.
pub fn sample(workload: Workload, seed: u64, traced: bool) -> Sample {
    match workload {
        Workload::FigFaults if traced => faults_traced(seed),
        Workload::FigFaults => faults_untraced(seed),
        single => single_run(single_scenario(single, seed), traced),
    }
}

/// Fold per-cell outcomes into a sample.
fn fold(cells: Vec<(CellOut, f64)>, wall_s: f64, digest: u64) -> Sample {
    let mut sample = Sample {
        wall_s,
        setup_s: 0.0,
        simulate_s: 0.0,
        cells_s: Vec::with_capacity(cells.len()),
        events: 0,
        digest,
        errors: Vec::new(),
        layers: Layers { imbalance: 1.0, ..Layers::default() },
    };
    for (cell, cell_s) in cells {
        sample.setup_s += cell.setup_s;
        sample.simulate_s += cell.simulate_s;
        sample.cells_s.push(cell_s);
        sample.events += cell.events;
        sample.errors.extend(cell.errors);
        let (l, c) = (&mut sample.layers, &cell.layers);
        l.build_setup_s += c.build_setup_s;
        l.build_mobility_s += c.build_mobility_s;
        l.agents_s += c.agents_s;
        l.sim_new_s += c.sim_new_s;
        l.agent.add(&c.agent);
        l.mobility.add(&c.mobility);
        l.probe.add(&c.probe);
        l.peak_queue_depth = l.peak_queue_depth.max(c.peak_queue_depth);
        l.sync_rounds += c.sync_rounds;
        l.imbalance = l.imbalance.max(c.imbalance);
        l.report_finish_s += c.report_finish_s;
        l.streaming_bytes += c.streaming_bytes;
        l.collisions += c.collisions;
        l.control_packets += c.control_packets;
    }
    sample
}

/// `fig_faults`, untraced: the preset grid through `Experiment` on one thread.
fn faults_untraced(seed: u64) -> Sample {
    let (base, spec) = faults_grid(seed);
    let start = Instant::now();
    let log = Arc::new(Mutex::new(GridLog { last_end: start, cells: Vec::new() }));
    let protocols = spec
        .protocols
        .iter()
        .map(|&kind| Arc::new(GridProtocol { kind, log: Arc::clone(&log) }) as Arc<dyn Protocol>);
    let cells = Experiment::new(base)
        .protocols(protocols)
        .sweep(spec.swept, spec.xs.clone())
        .threads(1)
        .run();
    let wall_s = start.elapsed().as_secs_f64();
    let digest = digest_reports(cells.iter().flat_map(|c| &c.reports));
    let outs = std::mem::take(&mut log.lock().expect("grid log lock").cells);
    fold(outs, wall_s, digest)
}

/// `fig_faults`, traced: the same grid in the same order (columns, then protocols, as
/// `Experiment` dispatches it), built step by step so each set-up stage is timed.
fn faults_traced(seed: u64) -> Sample {
    let (base, spec) = faults_grid(seed);
    let start = Instant::now();
    let mut outs = Vec::new();
    for (xi, &x) in spec.xs.iter().enumerate() {
        for &kind in &spec.protocols {
            let cell_start = Instant::now();
            let mut s = base;
            spec.swept.apply(&mut s, x);
            s.seed = derive_cell_seed(base.seed, 0, xi);
            s.engine = s.engine.with_stats();
            outs.push(staged_cell(kind, &s, true, cell_start));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let digest = digest_reports(outs.iter().map(|(c, _)| &c.report));
    fold(outs, wall_s, digest)
}

/// Build a scenario's setup and mobility with each stage timed, then run it.
fn staged_cell(kind: ProtocolKind, s: &Scenario, traced: bool, start: Instant) -> (CellOut, f64) {
    let seeds = SeedSequence::new(s.seed);
    let setup = build_setup(s, seeds);
    let t1 = Instant::now();
    let mobility = build_mobility(s, &seeds);
    let t2 = Instant::now();
    let mut out = run_cell(kind, s, setup, mobility, traced);
    out.layers.build_setup_s = (t1 - start).as_secs_f64();
    out.layers.build_mobility_s = (t2 - t1).as_secs_f64();
    out.setup_s += (t2 - start).as_secs_f64();
    (out, start.elapsed().as_secs_f64())
}

/// A one-simulation workload.
fn single_run(mut s: Scenario, traced: bool) -> Sample {
    if traced {
        s.engine = s.engine.with_stats();
    }
    let start = Instant::now();
    let out = staged_cell(ProtocolKind::Flooding, &s, traced, start);
    let wall_s = start.elapsed().as_secs_f64();
    let digest = digest_reports([&out.0.report]);
    fold(vec![out], wall_s, digest)
}

/// Reference digests and event counts for one workload and scenario seed, computed
/// through the scenario crate's own entry points (`Experiment` with the builtin
/// protocol factories, `run_protocol`), never through this benchmark's code paths.
/// The sharded flood is pinned from a one-shard run: the two-shard benchmark must
/// reproduce it, which checks shard-count invariance on every run.
pub fn reference(workload: Workload, seed: u64) -> (u64, u64) {
    let reports: Vec<SimReport> = match workload {
        Workload::FigFaults => {
            let (base, spec) = faults_grid(seed);
            Experiment::new(base)
                .protocol_kinds(&spec.protocols)
                .sweep(spec.swept, spec.xs.clone())
                .engine(base.engine.with_stats())
                .threads(1)
                .run()
                .into_iter()
                .flat_map(|c| c.reports)
                .collect()
        }
        single => {
            let mut s = single_scenario(single, seed);
            if s.engine.is_parallel() {
                s = s.with_shards(1);
            }
            s.engine = s.engine.with_stats();
            vec![run_protocol(&s, ProtocolKind::Flooding.to_protocol().as_ref())]
        }
    };
    let mut events = 0;
    let stripped: Vec<SimReport> = reports
        .into_iter()
        .map(|mut r| {
            events +=
                r.engine.take().expect("stats-on runs attach an engine block").events_processed;
            r
        })
        .collect();
    (digest_reports(&stripped), events)
}
