//! Multi-session multicast acceptance suite: N concurrent groups with membership churn
//! over one shared radio medium must be (a) deterministic across thread counts, (b)
//! per-session legitimate under churn for the
//! self-stabilizing presets (and never for structure-free flooding), and (c) exact
//! about energy: the per-group attributed energy must conserve the batteries' total.

use ssmcast::core::MetricKind;
use ssmcast::scenario::{
    run_protocol, Experiment, MobilityKind, ProtocolKind, Scenario, SweptParameter,
};

/// A 16-node static grid carrying three concurrent sessions with visible churn.
fn multi_group_scenario() -> Scenario {
    let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
    s.n_nodes = 16;
    s.group_size = 6;
    s.duration_s = 60.0;
    s.n_groups = 3;
    s.member_churn_rate = 0.1;
    s
}

#[test]
fn multi_group_reports_carry_one_block_per_session() {
    let s = multi_group_scenario();
    let report =
        run_protocol(&s, ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol().as_ref());
    let groups = report.groups.as_ref().expect("multi-group runs carry a breakdown");
    assert_eq!(groups.len(), 3);
    for (g, block) in groups.iter().enumerate() {
        assert_eq!(block.group, g as u16);
        assert_eq!(block.source, g as u32, "session g is sourced at node g");
        assert!(block.generated > 100, "session {g} generates CBR traffic");
        assert!(block.pdr > 0.0 && block.pdr <= 1.01, "session {g} pdr={}", block.pdr);
        assert!(block.membership_events() > 0, "session {g} churned");
        assert!(block.join_overhead_bytes_per_event > 0.0, "beacons price each churn event");
    }
    // Aggregate counters are the per-session sums.
    let (gen, del): (u64, u64) =
        groups.iter().fold((0, 0), |(g, d), b| (g + b.generated, d + b.delivered));
    assert_eq!(report.generated, gen);
    assert_eq!(report.delivered, del);
}

#[test]
fn per_session_results_are_identical_across_thread_counts() {
    let build = || {
        Experiment::new(multi_group_scenario())
            .protocol_kinds(&[
                ProtocolKind::SsSpst(MetricKind::EnergyAware),
                ProtocolKind::Flooding,
            ])
            .sweep(SweptParameter::GroupCount, [1.0, 3.0])
            .reps(2)
    };
    let serial = build().threads(1).run();
    let parallel = build().threads(8).run();
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.reports, b.reports,
            "{} @ x={} diverged across thread counts",
            a.protocol, a.x
        );
        for r in &a.reports {
            if a.x > 1.0 {
                assert!(r.groups.is_some(), "multi-group cells carry breakdowns");
            }
        }
    }
}

#[test]
fn ss_presets_hold_per_session_legitimacy_under_churn_where_flooding_never_does() {
    let s = multi_group_scenario();
    for kind in [MetricKind::Hop, MetricKind::EnergyAware] {
        let report = run_protocol(&s, ProtocolKind::SsSpst(kind).to_protocol().as_ref());
        let groups = report.groups.as_ref().expect("breakdown");
        for (g, block) in groups.iter().enumerate() {
            let c = block.convergence.as_ref().expect("churned runs probe per-session legitimacy");
            assert!(c.epochs_probed > 50, "session {g} probed across the run");
            assert!(
                c.first_legitimate_s.is_some(),
                "{}: session {g} must build a legitimate tree",
                kind.protocol_name()
            );
            assert!(
                c.legitimacy_ratio() > 0.5,
                "{}: session {g} legitimate only {:.0}% of epochs",
                kind.protocol_name(),
                c.legitimacy_ratio() * 100.0
            );
        }
        // The aggregate block is the conjunction over sessions.
        let agg = report.convergence.as_ref().expect("aggregate convergence");
        assert!(
            agg.epochs_legitimate
                <= groups
                    .iter()
                    .map(|b| b.convergence.as_ref().unwrap().epochs_legitimate)
                    .min()
                    .unwrap()
        );
    }
    let flood = run_protocol(&s, ProtocolKind::Flooding.to_protocol().as_ref());
    for block in flood.groups.as_ref().expect("breakdown") {
        let c = block.convergence.as_ref().expect("probed");
        assert_eq!(c.epochs_legitimate, 0, "flooding maintains no rooted structure");
        assert_eq!(c.first_legitimate_s, None);
    }
}

#[test]
fn energy_is_conserved_across_sessions_sharing_the_medium() {
    for kind in
        [ProtocolKind::SsSpst(MetricKind::EnergyAware), ProtocolKind::Odmrp, ProtocolKind::Flooding]
    {
        let report = run_protocol(&multi_group_scenario(), kind.to_protocol().as_ref());
        let groups = report.groups.as_ref().expect("breakdown");
        let attributed: f64 = groups.iter().map(|b| b.energy_j).sum();
        let tolerance = 1e-9 * report.total_energy_j.max(1.0);
        assert!(
            (attributed - report.total_energy_j).abs() <= tolerance,
            "{}: per-session energy {attributed} != total {}",
            kind.name(),
            report.total_energy_j
        );
        let overhear: f64 = groups.iter().map(|b| b.overhear_energy_j).sum();
        assert!(
            (overhear - report.overhear_energy_j).abs() <= tolerance,
            "{}: overhear {overhear} != {}",
            kind.name(),
            report.overhear_energy_j
        );
        assert!(
            groups.iter().all(|b| b.energy_j > 0.0),
            "{}: every session transmits",
            kind.name()
        );
    }
}

#[test]
fn churn_alone_turns_on_the_breakdown_and_probe_for_a_single_group() {
    let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
    s.n_nodes = 16;
    s.group_size = 6;
    s.duration_s = 60.0;
    s.member_churn_rate = 0.2;
    let report = run_protocol(&s, ProtocolKind::SsSpst(MetricKind::Hop).to_protocol().as_ref());
    let groups = report.groups.as_ref().expect("churned single-group runs carry a breakdown");
    assert_eq!(groups.len(), 1);
    assert!(groups[0].membership_events() > 0);
    assert!(report.convergence.is_some(), "churn engages the legitimacy probe");
    // Expected deliveries track the evolving membership, not the initial size.
    assert!(report.expected_deliveries > 0);
}

#[test]
fn group_count_sweep_runs_end_to_end_with_csv_columns() {
    use ssmcast::scenario::CsvStreamSink;
    let mut base = multi_group_scenario();
    base.duration_s = 30.0;
    let mut csv = CsvStreamSink::new(Vec::new());
    Experiment::new(base)
        .protocol_kinds(&[ProtocolKind::Flooding])
        .sweep(SweptParameter::GroupCount, [1.0, 2.0])
        .run_with_sink(&mut csv);
    let text = String::from_utf8(csv.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header + two columns");
    assert!(lines[0].ends_with("groups,joins,leaves"));
    let cols: Vec<&str> = lines[1].split(',').collect();
    let one_group: u64 = cols[cols.len() - 3].parse().unwrap();
    assert_eq!(one_group, 1);
    let cols: Vec<&str> = lines[2].split(',').collect();
    let two_groups: u64 = cols[cols.len() - 3].parse().unwrap();
    assert_eq!(two_groups, 2);
}
