//! Empirical self-stabilization: inject transient faults into running networks and
//! verify — via the legitimacy predicate probed by `StabilizationProbe` — that the
//! SS-SPST family re-converges to a correct multicast tree within a bounded number of
//! beacon rounds, that faulted runs are byte-for-byte reproducible, and that
//! non-stabilizing baselines measurably do *not* recover the same way under the same
//! seeded fault schedule.

use ssmcast::core::MetricKind;
use ssmcast::manet::{FaultPlanSpec, SilenceConfig};
use ssmcast::scenario::{
    run_protocol, Experiment, MobilityKind, ProtocolKind, Scenario, SweptParameter,
};
use ssmcast_metrics::ConvergenceStats;

/// A static 4×4 grid (no mobility) so recovery time measures stabilization, not tree
/// churn, with one corruption burst hitting half the nodes mid-run.
fn fault_scenario() -> Scenario {
    let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
    s.n_nodes = 16;
    s.group_size = 6;
    s.duration_s = 60.0;
    s.faults = FaultPlanSpec::corruption(1, 0.5, 25.0, 25.0); // burst exactly at t = 25 s
    s.faults.probe_epoch_s = 0.5;
    s
}

fn convergence_of(s: &Scenario, kind: ProtocolKind) -> ConvergenceStats {
    let report = run_protocol(s, kind.to_protocol().as_ref());
    report.convergence.unwrap_or_else(|| {
        panic!("{}: faulted runs must carry a ConvergenceStats block", kind.name())
    })
}

#[test]
fn every_ss_preset_recovers_from_a_corruption_burst_within_bounded_beacon_rounds() {
    let s = fault_scenario();
    // Bound: ten beacon intervals. The guarded commands repair local state in one
    // round; corrupted costs/pointers take O(diameter) further rounds to wash out.
    let bound_s = 10.0 * s.beacon_interval_s;
    for kind in MetricKind::ALL {
        let c = convergence_of(&s, ProtocolKind::SsSpst(kind));
        let name = kind.protocol_name();
        assert_eq!(c.faults_injected, 8, "{name}: ceil(0.5 × 16) nodes corrupted");
        assert!(
            c.first_legitimate_s.is_some(),
            "{name}: the tree must form at all before the fault"
        );
        assert_eq!(c.unrecovered, 0, "{name}: the burst must not be fatal");
        assert!(c.recovered >= 1, "{name}: the corruption episode must close");
        assert!(
            c.max_recovery_s <= bound_s,
            "{name}: recovery took {:.1}s, over the {bound_s}s bound",
            c.max_recovery_s
        );
        assert!(
            c.epochs_legitimate > c.epochs_probed / 2,
            "{name}: a static grid should be legitimate most of the run"
        );
    }
}

#[test]
fn ss_mst_recovers_from_a_corruption_burst_within_bounded_beacon_rounds() {
    // SS-MST is the same agent under the Bottleneck metric, so it must meet the same
    // bound as the four SS-SPST variants, with and without beacon suppression.
    let s = fault_scenario();
    for s in [s, s.with_silence(SilenceConfig::on())] {
        let c = convergence_of(&s, ProtocolKind::SsSpst(MetricKind::Bottleneck));
        assert_eq!(c.faults_injected, 8);
        assert!(c.first_legitimate_s.is_some(), "the tree must form before the fault");
        assert_eq!((c.unrecovered, c.recovered >= 1), (0, true), "the burst must heal");
        assert!(c.max_recovery_s <= 10.0 * s.beacon_interval_s, "took {:.1}s", c.max_recovery_s);
        assert!(c.epochs_legitimate > c.epochs_probed / 2);
    }
}

#[test]
fn same_seed_and_fault_plan_reproduce_byte_identical_reports() {
    let s = fault_scenario();
    for kind in
        [ProtocolKind::SsSpst(MetricKind::EnergyAware), ProtocolKind::Maodv, ProtocolKind::Flooding]
    {
        let a = run_protocol(&s, kind.to_protocol().as_ref());
        let b = run_protocol(&s, kind.to_protocol().as_ref());
        assert_eq!(a, b, "{}: faulted runs must be deterministic", kind.name());
        assert!(a.convergence.is_some());
    }
    // A different seed draws a different schedule and a different outcome.
    let mut other = s;
    other.seed ^= 0xBEEF;
    let a = run_protocol(&s, ProtocolKind::Flooding.to_protocol().as_ref());
    let b = run_protocol(&other, ProtocolKind::Flooding.to_protocol().as_ref());
    assert_ne!(a, b);
}

#[test]
fn ss_spst_converges_where_the_non_stabilizing_baseline_never_does() {
    // Identical scenario, identical seeded fault schedule: the self-stabilizing tree
    // protocol re-establishes legitimacy after the burst; blind flooding maintains no
    // rooted structure, so its "convergence time" is unbounded — the probe reports the
    // episode as never recovered. This is the measured difference the paper's lemmas
    // only assert.
    let s = fault_scenario();
    let ss = convergence_of(&s, ProtocolKind::SsSpst(MetricKind::EnergyAware));
    let flood = convergence_of(&s, ProtocolKind::Flooding);
    assert!(ss.recovered >= 1 && ss.unrecovered == 0);
    assert!(ss.mean_recovery_s > 0.0, "recovery takes measurable time");
    assert_eq!(flood.epochs_legitimate, 0, "flooding never forms a legitimate tree");
    assert_eq!(flood.recovered, 0, "so no fault episode ever closes");
    assert!(flood.unrecovered >= 1, "the burst episode stays open to the end of the run");
    assert_eq!(
        ss.faults_injected, flood.faults_injected,
        "both protocols faced the same seeded schedule"
    );
}

#[test]
fn beacon_rate_drives_recovery_speed_across_tree_protocols() {
    // MAODV repairs routes only on its 5 s Group Hello flood; SS-SPST-E beacons every
    // 2 s. Under the same corruption burst the slower control plane must need at least
    // as long to re-establish a legitimate tree. (Deterministic seeds: this is a stable
    // measured comparison, not a flaky heuristic.)
    let s = fault_scenario();
    let ss = convergence_of(&s, ProtocolKind::SsSpst(MetricKind::EnergyAware));
    let maodv = convergence_of(&s, ProtocolKind::Maodv);
    assert!(ss.recovered >= 1);
    if maodv.recovered > 0 {
        assert!(
            maodv.mean_recovery_s >= ss.mean_recovery_s,
            "MAODV ({:.2}s) should not out-recover the 2 s-beacon SS-SPST-E ({:.2}s)",
            maodv.mean_recovery_s,
            ss.mean_recovery_s
        );
    } else {
        assert!(maodv.unrecovered >= 1, "unrecovered episodes must be accounted");
    }
}

#[test]
fn fault_free_scenarios_stay_byte_identical_to_pre_fault_builds() {
    // The probe only engages when faults are configured: a default scenario's report
    // must carry no convergence block (and therefore hash/compare exactly as before
    // the fault subsystem existed).
    let mut s = Scenario::quick_test();
    s.duration_s = 25.0;
    s.n_nodes = 12;
    let report = run_protocol(&s, ProtocolKind::SsSpst(MetricKind::Hop).to_protocol().as_ref());
    assert!(report.convergence.is_none());
}

#[test]
fn experiment_grid_threads_fault_plans_into_every_cell() {
    let mut base = fault_scenario();
    base.duration_s = 40.0;
    base.faults.window_start_s = 20.0;
    base.faults.window_end_s = 20.0;
    let cells = Experiment::new(base)
        .protocol_kinds(&[ProtocolKind::SsSpst(MetricKind::EnergyAware), ProtocolKind::Flooding])
        .sweep(SweptParameter::Velocity, [1.0, 5.0])
        .reps(2)
        .run();
    assert_eq!(cells.len(), 4);
    for cell in &cells {
        assert_eq!(cell.reports.len(), 2);
        for r in &cell.reports {
            let c = r.convergence.as_ref().expect("fault grids probe every run");
            assert!(c.faults_injected > 0);
            assert!(c.epochs_probed > 0);
        }
    }
    // The `Experiment::faults` override reaches columns built before the call.
    let mut clean = fault_scenario();
    clean.faults = FaultPlanSpec::none();
    let overridden = Experiment::new(clean)
        .protocol_kinds(&[ProtocolKind::Flooding])
        .sweep(SweptParameter::Velocity, [1.0])
        .faults(FaultPlanSpec::corruption(1, 0.3, 20.0, 20.0))
        .run();
    assert!(overridden[0].reports[0].convergence.is_some());
}

#[test]
fn drain_spikes_against_unlimited_batteries_are_not_phantom_faults() {
    // The paper's default batteries are unlimited, so a drain spike changes nothing —
    // it must not be reported as an injected fault or open an episode. With a finite
    // capacity the same plan bites and is accounted.
    let mut s = fault_scenario();
    s.faults = FaultPlanSpec::none();
    s.faults.battery_drains = 3;
    s.faults.drain_joules = 1.0e9;
    s.faults.window_start_s = 20.0;
    s.faults.window_end_s = 30.0;
    let no_op = convergence_of(&s, ProtocolKind::SsSpst(MetricKind::EnergyAware));
    assert_eq!(no_op.faults_injected, 0, "unlimited batteries make drains physical no-ops");
    assert_eq!(no_op.recovered + no_op.unrecovered, 0, "so no episode may open");

    let mut finite = s;
    finite.battery_capacity_j = 50.0;
    let hit = convergence_of(&finite, ProtocolKind::SsSpst(MetricKind::EnergyAware));
    assert!(hit.faults_injected >= 1, "finite batteries feel at least the first spike");
}

#[test]
fn fault_burst_sweep_composes_with_base_scenario_knobs() {
    // The documented recipe: fault knobs on the base scenario, burst count swept.
    // Every column must actually inject faults, scaling with x.
    let mut base = fault_scenario();
    base.duration_s = 40.0;
    base.faults = FaultPlanSpec::none();
    base.faults.corruption_fraction = 0.5;
    let cells = Experiment::new(base)
        .protocol_kinds(&[ProtocolKind::Flooding])
        .sweep(SweptParameter::FaultBursts, [1.0, 3.0])
        .run();
    assert_eq!(cells.len(), 2);
    let f1 = cells[0].reports[0].convergence.as_ref().expect("column x=1 probes").faults_injected;
    let f3 = cells[1].reports[0].convergence.as_ref().expect("column x=3 probes").faults_injected;
    assert_eq!(f1, 8, "1 burst × ceil(0.5 × 16) nodes");
    assert_eq!(f3, 24, "3 bursts × ceil(0.5 × 16) nodes");
}
