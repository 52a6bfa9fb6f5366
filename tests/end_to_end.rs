//! End-to-end integration tests: the full event-driven stack (dessim + manet + protocol
//! agents + scenario harness) on small but realistic scenarios.

use ssmcast::core::{MetricKind, MetricParams, SsSpstAgent, SsSpstConfig};
use ssmcast::dessim::{SeedSequence, SimDuration, SimTime};
use ssmcast::manet::{
    BoxedMobility, FaultPlan, GroupRole, MediumConfig, NetworkSim, NodeId, RadioConfig, SimSetup,
    Stationary, TrafficConfig, Vec2,
};
use ssmcast::scenario::{
    run_figure, run_protocol, FigureId, Metric, ProtocolKind, ProtocolRegistry, Scenario,
};

/// A stationary 3×3 grid with 150 m spacing and 250 m range: fully connected, no mobility,
/// so a correct proactive protocol should deliver essentially every packet.
fn grid_setup(kind_members: &[GroupRole]) -> (SimSetup, Vec<BoxedMobility>) {
    let n = kind_members.len();
    assert_eq!(n, 9);
    let mobility: Vec<BoxedMobility> = (0..9)
        .map(|i| {
            let x = (i % 3) as f64 * 150.0;
            let y = (i / 3) as f64 * 150.0;
            Box::new(Stationary::new(Vec2::new(x, y))) as BoxedMobility
        })
        .collect();
    let radio = RadioConfig { loss_probability: 0.0, ..RadioConfig::default() };
    let traffic = TrafficConfig {
        group: Default::default(),
        source: NodeId(0),
        data_rate_bps: 64_000.0,
        packet_size_bytes: 512,
        start: SimTime::from_secs(10),
        stop: SimTime::from_secs(70),
    };
    let setup = SimSetup::single(
        radio,
        traffic,
        kind_members.to_vec(),
        f64::INFINITY,
        SeedSequence::new(2024),
        MediumConfig::default(),
        FaultPlan::new(),
    );
    (setup, mobility)
}

#[test]
fn ss_spst_e_delivers_nearly_everything_on_a_static_grid() {
    let roles = [
        GroupRole::Source,
        GroupRole::NonMember,
        GroupRole::Member,
        GroupRole::NonMember,
        GroupRole::NonMember,
        GroupRole::NonMember,
        GroupRole::Member,
        GroupRole::NonMember,
        GroupRole::Member,
    ];
    let (setup, mobility) = grid_setup(&roles);
    let agents = (0..9)
        .map(|_| SsSpstAgent::new(SsSpstConfig::paper_default(MetricKind::EnergyAware)))
        .collect();
    let mut sim = NetworkSim::new(setup, mobility, agents);
    let report = sim.run(SimDuration::from_secs(80));
    assert!(report.generated > 800);
    assert!(
        report.pdr > 0.95,
        "a static, lossless grid should deliver almost everything; pdr = {}",
        report.pdr
    );
    assert!(report.avg_delay_ms > 0.0 && report.avg_delay_ms < 200.0);
    assert!(report.control_bytes > 0, "beacons must be accounted as control traffic");
    assert!(report.energy_per_delivered_mj > 0.0);
}

#[test]
fn all_ss_variants_build_working_trees_on_the_static_grid() {
    for kind in MetricKind::ALL {
        let roles = [
            GroupRole::Source,
            GroupRole::NonMember,
            GroupRole::Member,
            GroupRole::NonMember,
            GroupRole::NonMember,
            GroupRole::NonMember,
            GroupRole::Member,
            GroupRole::NonMember,
            GroupRole::Member,
        ];
        let (setup, mobility) = grid_setup(&roles);
        let config =
            SsSpstConfig { params: MetricParams::default(), ..SsSpstConfig::paper_default(kind) };
        let agents = (0..9).map(|_| SsSpstAgent::new(config)).collect();
        let mut sim = NetworkSim::new(setup, mobility, agents);
        let report = sim.run(SimDuration::from_secs(80));
        assert!(
            report.pdr > 0.9,
            "{} should deliver on a static grid, got {}",
            kind.protocol_name(),
            report.pdr
        );
        // The stabilized agents must agree on a loop-free structure: follow parents from
        // every node and confirm the walk reaches the source.
        for i in 1..9u32 {
            let mut cur = NodeId(i);
            let mut hops = 0;
            while let Some(p) = sim.agent(cur).parent() {
                cur = p;
                hops += 1;
                assert!(hops <= 9, "{}: parent pointers loop", kind.protocol_name());
            }
            assert_eq!(cur, NodeId(0), "{}: node {i} is detached", kind.protocol_name());
        }
    }
}

#[test]
fn mobile_scenario_sanity_for_all_protocols() {
    let mut s = Scenario::quick_test();
    s.duration_s = 45.0;
    s.n_nodes = 20;
    s.group_size = 8;
    s.max_speed_mps = 5.0;
    let registry = ProtocolRegistry::with_builtins();
    let mut reports = Vec::new();
    for name in ["SS-SPST", "SS-SPST-E", "MAODV", "ODMRP"] {
        let protocol = registry.lookup(name).expect("built-in protocol");
        let r = run_protocol(&s, protocol.as_ref());
        assert!(r.pdr > 0.05, "{name} delivered essentially nothing");
        assert!(r.pdr <= 1.0);
        assert!(r.total_energy_j > 0.0);
        assert!(r.control_bytes > 0, "{name} sent no control traffic");
        reports.push(r);
    }
    // Proactive beaconing vs on-demand: the SS-SPST family keeps sending control traffic
    // regardless of data, so over a short run its control volume exceeds MAODV's.
    let ss = &reports[0];
    let maodv = &reports[2];
    assert!(ss.control_packets > maodv.control_packets);
}

#[test]
fn figure_presets_produce_complete_series_at_smoke_scale() {
    // A tiny-scale pass over one velocity figure and one group-size figure: checks the
    // sweep plumbing end to end (cells × protocols × series) rather than the numbers.
    for id in [FigureId::Fig7, FigureId::Fig13] {
        let result = run_figure(id, 0.2, 1);
        let spec = &result.spec;
        assert_eq!(result.series.len(), spec.protocols.len());
        for series in &result.series {
            assert_eq!(series.points.len(), spec.xs.len(), "{}: missing points", series.label);
        }
        assert_eq!(result.cells.len(), spec.xs.len() * spec.protocols.len());
        assert!(result.cells.iter().all(|c| c.reports.len() == 1));
    }
}

#[test]
fn unavailability_mirrors_pdr_in_reports() {
    let mut s = Scenario::quick_test();
    s.duration_s = 40.0;
    s.n_nodes = 20;
    s.group_size = 8;
    let flooding = ProtocolKind::Flooding.to_protocol();
    let good = run_protocol(&s, flooding.as_ref());
    // Cripple the channel to force losses and compare.
    let mut bad_scenario = s;
    bad_scenario.radio.loss_probability = 0.6;
    let bad = run_protocol(&bad_scenario, flooding.as_ref());
    assert!(good.pdr > bad.pdr);
    assert!(
        good.unavailability_ratio <= bad.unavailability_ratio,
        "lower PDR must not come with lower unavailability ({} vs {})",
        good.unavailability_ratio,
        bad.unavailability_ratio
    );
    assert_eq!(Metric::Pdr.extract(&good), good.pdr);
}
