//! Energy-lifecycle acceptance suite: the network-lifetime workload must differentiate
//! protocols (SS-SPST-E outlives SS-SPST outlives flooding on the `FigLifetime`
//! preset), battery death must be permanent and total (dead nodes never transmit,
//! receive, or appear in probe alive-sets), energy must be conserved across sessions
//! even with duty-cycled radios, continuous drain and TX power control, and every
//! lifecycle mechanism must be deterministic per seed.

use proptest::prelude::*;
use ssmcast::core::MetricKind;
use ssmcast::dessim::{SeedSequence, SimDuration, SimTime};
use ssmcast::manet::{
    BoxedMobility, DataTag, Disposition, DutyCycleConfig, DutySchedule, EnergyModel, FaultPlan,
    GroupRole, MediumConfig, NetworkSim, NodeCtx, NodeId, Packet, ProtocolAgent, RadioConfig,
    SeqSet, SimSetup, Stationary, TrafficConfig, Vec2,
};
use ssmcast::scenario::{
    run_protocol, run_single_cell, FigureId, Metric, MobilityKind, ProtocolKind, ProtocolRegistry,
    Scenario,
};
use std::sync::{Arc, Mutex};

/// The acceptance condition of the lifetime workload: on the `FigLifetime` preset the
/// energy-aware tree keeps its first node alive at least as long as the hop tree, which
/// outlives blind flooding — strictly, at capacities small enough that everyone loses
/// somebody.
#[test]
fn lifetime_sweep_differentiates_the_protocols() {
    for capacity in [5.0, 10.0, 20.0] {
        let ttfd = |kind: ProtocolKind| {
            let report = run_single_cell(FigureId::FigLifetime, capacity, kind, 0.2);
            let lifetime = report.lifetime.as_ref().expect("finite batteries track lifetime");
            assert_eq!(
                Metric::TimeToFirstDeathS.extract(&report),
                lifetime.time_to_first_death_s(report.duration_s)
            );
            lifetime.time_to_first_death_s(report.duration_s)
        };
        let flooding = ttfd(ProtocolKind::Flooding);
        let hop = ttfd(ProtocolKind::SsSpst(MetricKind::Hop));
        let energy_aware = ttfd(ProtocolKind::SsSpst(MetricKind::EnergyAware));
        assert!(
            energy_aware >= hop && hop >= flooding,
            "cap {capacity} J: expected SS-SPST-E ({energy_aware}) >= SS-SPST ({hop}) >= \
             Flooding ({flooding})"
        );
        if capacity <= 10.0 {
            assert!(
                energy_aware > flooding,
                "cap {capacity} J: the energy-aware tree must strictly outlive flooding"
            );
        }
    }
}

#[test]
fn lifetime_block_carries_curves_and_residuals() {
    let report = run_single_cell(FigureId::FigLifetime, 10.0, ProtocolKind::Flooding, 0.2);
    let lifetime = report.lifetime.as_ref().expect("lifetime block");
    assert!(lifetime.deaths > 0, "a 10 J flooding network loses nodes");
    assert_eq!(lifetime.alive_final + lifetime.deaths, 50);
    assert_eq!(lifetime.first_death_s.map(|s| s > 0.0), Some(true));
    // Curves: one sample per epoch across the run, alive counts monotone nonincreasing
    // (battery death is permanent and this preset injects no crash/rejoin faults).
    assert!(lifetime.alive_curve.len() >= 30, "one sample per second across a 36 s run");
    assert_eq!(lifetime.alive_curve.len(), lifetime.delivery_ratio_curve.len());
    assert!(lifetime.alive_curve.windows(2).all(|w| w[1] <= w[0]), "no battery resurrections");
    assert_eq!(*lifetime.alive_curve.last().unwrap(), lifetime.alive_final);
    assert!(lifetime.delivery_ratio_curve.iter().all(|r| (0.0..=1.0).contains(r)));
    // The residual histogram covers every node, and the idle current was accounted.
    let binned: u64 = lifetime.residual_energy_histogram.iter().sum();
    assert_eq!(binned, 50);
    assert!(lifetime.idle_energy_j > 0.0, "the preset's idle-listen current drains");
    assert!(lifetime.mean_residual_j >= lifetime.min_residual_j);
}

#[test]
fn unlimited_battery_lifecycle_off_runs_carry_no_lifetime_block() {
    let mut s = Scenario::quick_test();
    s.duration_s = 20.0;
    s.n_nodes = 12;
    s.group_size = 5;
    let report = run_protocol(&s, ProtocolKind::Flooding.to_protocol().as_ref());
    assert!(report.lifetime.is_none(), "the paper's model tracks no lifetime");
    let json = serde_json::to_string(&report).expect("reports serialize");
    assert!(!json.contains("\"lifetime\""), "the block must be absent, not null: {json}");
}

/// A flooding agent that records every protocol callback with its timestamp, so the
/// test can prove no callback ever reaches a dead node.
struct RecordingFlood {
    seen: SeqSet,
    log: Arc<Mutex<Vec<(NodeId, SimTime)>>>,
}

impl ProtocolAgent for RecordingFlood {
    type Payload = ();

    fn start(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_, ()>, packet: &Packet<()>) -> Disposition {
        self.log.lock().unwrap().push((ctx.id, ctx.now));
        let Some(tag) = packet.data else { return Disposition::Discarded };
        if !self.seen.insert(tag.seq) {
            return Disposition::Discarded;
        }
        if ctx.is_member() {
            ctx.deliver_data(tag);
        }
        ctx.broadcast_data(packet.size_bytes, ctx.radio.max_range_m, tag, ());
        Disposition::Consumed
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, ()>, _kind: u64, _key: u64) {
        self.log.lock().unwrap().push((ctx.id, ctx.now));
    }

    fn on_app_data(&mut self, ctx: &mut NodeCtx<'_, ()>, tag: DataTag, size: u32) {
        self.log.lock().unwrap().push((ctx.id, ctx.now));
        self.seen.insert(tag.seq);
        ctx.broadcast_data(size, ctx.radio.max_range_m, tag, ());
    }

    fn label(&self) -> &'static str {
        "recording-flood"
    }
}

/// Observer that snapshots the probe's alive vector at every epoch.
#[derive(Default)]
struct AliveRecorder {
    epochs: Vec<(SimTime, Vec<bool>)>,
}

impl ssmcast::manet::StabilizationObserver for AliveRecorder {
    fn probe_epoch(&self) -> SimDuration {
        SimDuration::from_millis(500)
    }
    fn on_epoch(&mut self, ctx: &ssmcast::manet::ProbeContext<'_>) {
        self.epochs.push((ctx.now, ctx.alive.to_vec()));
    }
    fn on_fault(
        &mut self,
        _k: &ssmcast::manet::FaultKind,
        _ctx: &ssmcast::manet::ProbeContext<'_>,
    ) {
    }
    fn finish(&mut self, _end: SimTime) -> Option<ssmcast::metrics::ConvergenceStats> {
        None
    }
}

#[test]
fn dead_nodes_never_transmit_receive_or_appear_alive() {
    // A 5-node line with tiny batteries and an idle-listen current: nodes die mid-run.
    let n = 5usize;
    let roles: Vec<GroupRole> =
        (0..n).map(|i| if i == 0 { GroupRole::Source } else { GroupRole::Member }).collect();
    let mobility: Vec<BoxedMobility> = (0..n)
        .map(|i| Box::new(Stationary::new(Vec2::new(i as f64 * 150.0, 0.0))) as BoxedMobility)
        .collect();
    let radio =
        RadioConfig { loss_probability: 0.0, collisions_enabled: false, ..RadioConfig::default() };
    let traffic = TrafficConfig {
        group: Default::default(),
        source: NodeId(0),
        data_rate_bps: 64_000.0,
        packet_size_bytes: 512,
        start: SimTime::from_secs(1),
        stop: SimTime::from_secs(28),
    };
    let mut setup = SimSetup::single(
        radio,
        traffic,
        roles,
        2.0, // joules: a couple of seconds of flooding
        SeedSequence::new(99),
        MediumConfig::default(),
        FaultPlan::new(),
    );
    setup.lifecycle = setup.lifecycle.with_idle_power(5e-3, 0.0);
    let log = Arc::new(Mutex::new(Vec::new()));
    let agents = (0..n)
        .map(|_| RecordingFlood { seen: Default::default(), log: Arc::clone(&log) })
        .collect();
    let mut sim = NetworkSim::new(setup, mobility, agents);
    let mut observer = AliveRecorder::default();
    let report = sim.run_probed(SimDuration::from_secs(30), &mut observer);

    let deaths: Vec<Option<SimTime>> = (0..n).map(|i| sim.death_time(NodeId(i as u32))).collect();
    assert!(deaths.iter().filter(|d| d.is_some()).count() >= 2, "tiny batteries kill nodes");
    let lifetime = report.lifetime.as_ref().expect("finite batteries track lifetime");
    assert_eq!(lifetime.deaths as usize, deaths.iter().filter(|d| d.is_some()).count());
    assert_eq!(
        lifetime.first_death_s.map(SimTime::from_secs_f64),
        deaths.iter().flatten().min().copied()
    );

    // No protocol callback (reception, timer, app send) ever reached a dead node.
    for &(node, at) in log.lock().unwrap().iter() {
        if let Some(died) = deaths[node.index()] {
            assert!(at <= died, "{node:?} saw a callback at {at} after dying at {died}");
        }
    }
    // The battery books exactly its capacity, never more (the documented clamp).
    for (i, death) in deaths.iter().enumerate() {
        let b = sim.battery(NodeId(i as u32));
        assert!(b.consumed() <= 2.0 + 1e-12, "node {i} consumed {}", b.consumed());
        if death.is_some() {
            assert!(b.is_depleted());
            assert!((b.consumed() - 2.0).abs() < 1e-9, "a dead battery booked its capacity");
        }
    }
    // Probe alive-sets: a node reads false at every epoch after its death and true
    // before; death is permanent (no resurrection anywhere in the record).
    assert!(!observer.epochs.is_empty());
    for (at, alive) in &observer.epochs {
        for i in 0..n {
            match deaths[i] {
                Some(died) if *at >= died => {
                    assert!(!alive[i], "dead node {i} alive in the probe at {at}")
                }
                _ => assert!(alive[i], "node {i} misreported dead at {at}"),
            }
        }
    }
}

#[test]
fn duty_cycled_radios_miss_deliveries_but_still_transmit() {
    // Two stationary nodes in range; node 1 sleeps 70 % of every second. The source's
    // traffic keeps flowing (transmissions wake the radio), but node 1 misses the
    // frames that land in its sleep window, so PDR drops well below the always-on run.
    let run = |awake_fraction: f64| {
        let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
        s.n_nodes = 9;
        s.group_size = 9;
        s.duration_s = 40.0;
        s.radio.loss_probability = 0.0;
        s = s.with_duty_cycle(1.0, awake_fraction);
        run_protocol(&s, ProtocolKind::Flooding.to_protocol().as_ref())
    };
    let always_on = run(1.0);
    let duty_cycled = run(0.3);
    assert!((always_on.pdr - 1.0).abs() < 1e-6, "lossless static flooding delivers all");
    assert!(
        duty_cycled.pdr < 0.9 * always_on.pdr,
        "sleeping radios must miss deliveries: {} vs {}",
        duty_cycled.pdr,
        always_on.pdr
    );
    assert!(duty_cycled.generated == always_on.generated, "the application never sleeps");
    assert!(duty_cycled.total_energy_j > 0.0);
}

#[test]
fn tx_power_control_only_lowers_energy_and_changes_nothing_else() {
    // With unlimited batteries the energy model is pure accounting: power control must
    // leave every traffic number identical and never increase a single energy figure.
    let run = |pc: bool| {
        let mut s = Scenario::quick_test();
        s.duration_s = 30.0;
        s.n_nodes = 20;
        s.group_size = 8;
        s = s.with_tx_power_control(pc);
        run_protocol(&s, ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol().as_ref())
    };
    let flat = run(false);
    let controlled = run(true);
    assert_eq!(flat.generated, controlled.generated);
    assert_eq!(flat.delivered, controlled.delivered);
    assert_eq!(flat.control_packets, controlled.control_packets);
    assert_eq!(flat.avg_delay_ms, controlled.avg_delay_ms);
    assert!(
        controlled.total_energy_j < flat.total_energy_j,
        "pricing by actual receiver distance must save energy: {} vs {}",
        controlled.total_energy_j,
        flat.total_energy_j
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// TX energy is monotone in the covered distance and never drops below the
    /// zero-range electronics floor — the invariant distance-based power control
    /// relies on to guarantee a transmission is never priced below its floor cost.
    #[test]
    fn tx_energy_is_monotone_in_distance_and_floored(
        d1 in 0.0f64..400.0,
        d2 in 0.0f64..400.0,
        bytes in 16u32..2048,
        alpha_tenths in 20u32..41,
    ) {
        let model = EnergyModel { alpha: f64::from(alpha_tenths) / 10.0, ..EnergyModel::default() };
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(model.tx_energy(near, bytes) <= model.tx_energy(far, bytes));
        let floor = model.tx_energy(0.0, bytes);
        prop_assert!(floor > 0.0, "the electronics term keeps the floor positive");
        prop_assert!(model.tx_energy(near, bytes) >= floor);
    }

    /// Duty-cycle schedules are deterministic per seed: same (config, n, seed) gives
    /// the same awake pattern, and the awake time integrates to the configured
    /// fraction over whole periods.
    #[test]
    fn duty_schedules_are_deterministic_and_integrate_to_the_fraction(
        seed in 0u64..10_000,
        period_ms in 100u64..2_000,
        awake_tenths in 1u64..10,
    ) {
        let fraction = awake_tenths as f64 / 10.0;
        let cfg = DutyCycleConfig::new(SimDuration::from_millis(period_ms), fraction);
        let a = DutySchedule::from_seeds(&cfg, 6, &SeedSequence::new(seed));
        let b = DutySchedule::from_seeds(&cfg, 6, &SeedSequence::new(seed));
        for i in 0..6u32 {
            let node = NodeId(i);
            for k in 0..40u64 {
                let t = SimTime::ZERO + SimDuration::from_millis(k * 73);
                prop_assert_eq!(a.is_awake(node, t), b.is_awake(node, t));
            }
            // Over 1000 whole periods the awake share is exactly the configured
            // fraction (up to the nanosecond rounding of the awake window).
            let horizon = SimTime::ZERO + SimDuration::from_millis(period_ms * 1000);
            let awake = a.awake_between(node, SimTime::ZERO, horizon).as_secs_f64();
            let expect = fraction * period_ms as f64;
            prop_assert!(
                (awake - expect).abs() < 1e-3,
                "node {}: awake {}s, expected {}s", i, awake, expect
            );
        }
    }

    /// Full-lifecycle runs (duty cycle + idle drain + finite batteries + power
    /// control) are deterministic per seed, like every other run.
    #[test]
    fn lifecycle_runs_are_deterministic_per_seed(
        seed in 0u64..5_000,
        awake_tenths in 3u64..11,
    ) {
        let build = || {
            let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
            s.n_nodes = 12;
            s.group_size = 5;
            s.duration_s = 20.0;
            s.seed = seed;
            s.with_battery_capacity(3.0)
                .with_duty_cycle(0.5, awake_tenths as f64 / 10.0)
                .with_idle_power(2e-3, 1e-4)
                .with_tx_power_control(true)
        };
        let a = run_protocol(&build(), ProtocolKind::Flooding.to_protocol().as_ref());
        let b = run_protocol(&build(), ProtocolKind::Flooding.to_protocol().as_ref());
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// Energy conservation across the full lifecycle, for every builtin protocol:
    /// the batteries' total equals the session-attributed radio energy plus the
    /// continuous idle/sleep drain plus fault-injected drain spikes — nothing leaks,
    /// even with duty-cycled radios, depleting batteries (whose dying-gasp
    /// consumptions are clamped) and distance-priced transmissions.
    #[test]
    fn energy_is_conserved_under_the_full_lifecycle(
        seed in 0u64..10_000,
        cap in 3.0f64..30.0,
        awake_tenths in 3u64..11,
        idle_mw in 0.5f64..5.0,
        power_control in 0u32..2,
    ) {
        let registry = ProtocolRegistry::with_builtins();
        for name in registry.names() {
            let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
            s.n_nodes = 16;
            s.group_size = 6;
            s.duration_s = 25.0;
            s.n_groups = 2;
            s.member_churn_rate = 0.05;
            s.seed = seed;
            s.faults.battery_drains = 2;
            s.faults.drain_joules = cap / 4.0;
            s.faults.window_start_s = 5.0;
            s.faults.window_end_s = 20.0;
            let s = s
                .with_battery_capacity(cap)
                .with_duty_cycle(0.5, awake_tenths as f64 / 10.0)
                .with_idle_power(idle_mw * 1e-3, 1e-5)
                .with_tx_power_control(power_control == 1);
            let protocol = registry.lookup(name).expect("builtin");
            let report = run_protocol(&s, protocol.as_ref());
            let groups = report.groups.as_ref().expect("two sessions carry a breakdown");
            let lifetime = report.lifetime.as_ref().expect("finite batteries track lifetime");
            let attributed: f64 = groups.iter().map(|g| g.energy_j).sum();
            let accounted = attributed + lifetime.continuous_drain_j() + lifetime.drained_j;
            let tolerance = 1e-9 * report.total_energy_j.max(1.0);
            prop_assert!(
                (accounted - report.total_energy_j).abs() <= tolerance,
                "{}: sessions {} + drain {} + spikes {} != batteries {}",
                name,
                attributed,
                lifetime.continuous_drain_j(),
                lifetime.drained_j,
                report.total_energy_j
            );
        }
    }
}
