//! Sequential-vs-sharded **byte equivalence** for faulted runs.
//!
//! The sharded engine is, in general, a different discretisation than the sequential
//! loop (position quantization, per-sender loss streams — see EXPERIMENTS.md). But on
//! *exact physics* — stationary nodes, zero channel loss, collisions off, zero MAC
//! jitter — every documented deviation is switched off, and the two engines must
//! produce byte-identical serialized reports even under an explicit fault plan. These
//! tests pin the two sharded-engine fidelity fixes:
//!
//! * blackouts now apply with the sequential queue's fault-first rank — a transmission
//!   scheduled at the blackout's own instant is already silenced (previously the
//!   sharded coordinator applied specials only after draining the instant, so
//!   same-instant events ran pre-blackout);
//! * the TDMA two-hop claim piggyback now ships the sender's claim row with the frame
//!   (previously it read the live table and was disabled under sharding);
//! * probed runs now apply every seeded fault coordinator-side with a per-fault
//!   observation, mirroring the sequential engine's fault-by-fault probe snapshots —
//!   the last documented probe-burst deviation is gone (see the burst-heavy test);
//! * harvest wakes route through the owning shard's queue, so sharded perpetual runs
//!   are no longer silently declined (see the harvest test, shards ∈ {1, 2, 8}).
//!
//! Most plans are injected directly into the built `SimSetup` (not via
//! `FaultPlanSpec`), keeping those runs unprobed so each pin isolates one mechanism;
//! the burst-heavy test goes through the spec on purpose to exercise the probed path.

use ssmcast::core::MetricKind;
use ssmcast::dessim::{SeedSequence, SimDuration, SimTime};
use ssmcast::manet::{FaultKind, FaultPlan, HarvestConfig, MacConfig, NodeId, SimReport};
use ssmcast::scenario::{
    build_mobility, build_setup, run_protocol, MobilityKind, ProtocolKind, Scenario,
};

/// Stationary, loss-free, collision-free, jitter-free physics: the regime in which the
/// sharded engine's coarser discretisation collapses onto the sequential one.
fn exact_physics_scenario() -> Scenario {
    let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
    s.duration_s = 20.0;
    s.warmup_s = 2.0;
    s.n_nodes = 25;
    s.group_size = 10;
    s.radio.loss_probability = 0.0;
    s.radio.collisions_enabled = false;
    s.radio.mac_backoff_max = SimDuration::ZERO;
    s
}

/// Run `scenario` under `kind` with an explicitly injected fault plan. `shards == 0`
/// selects the sequential engine.
fn run_with_plan(
    scenario: &Scenario,
    kind: ProtocolKind,
    shards: u32,
    plan: &dyn Fn(&Scenario) -> FaultPlan,
) -> SimReport {
    let mut s = *scenario;
    if shards > 0 {
        s = s.with_shards(shards);
    }
    let seeds = SeedSequence::new(s.seed);
    let mut setup = build_setup(&s, seeds);
    setup.faults = plan(&s);
    let mobility = build_mobility(&s, &seeds);
    kind.to_protocol().run(&s, setup, mobility)
}

fn assert_engine_equivalent(
    scenario: &Scenario,
    kind: ProtocolKind,
    plan: &dyn Fn(&Scenario) -> FaultPlan,
    label: &str,
) -> SimReport {
    let sequential = run_with_plan(scenario, kind, 0, plan);
    let seq_bytes = serde_json::to_string(&sequential).expect("reports serialize");
    for shards in [1u32, 3] {
        let sharded = run_with_plan(scenario, kind, shards, plan);
        let sh_bytes = serde_json::to_string(&sharded).expect("reports serialize");
        assert_eq!(
            seq_bytes, sh_bytes,
            "{label}: sharded ({shards}) faulted report diverged from the sequential engine"
        );
    }
    sequential
}

/// The k-th CBR send instant of session 0 — exactly as the traffic generator schedules
/// it (integer-nanosecond interval steps from the traffic start).
fn send_instant(scenario: &Scenario, k: u32) -> SimTime {
    let seeds = SeedSequence::new(scenario.seed);
    let setup = build_setup(scenario, seeds);
    let traffic = &setup.sessions[0].traffic;
    traffic.start + traffic.interval().saturating_mul(u64::from(k))
}

#[test]
fn faulted_runs_are_engine_equivalent_for_every_fault_kind() {
    let s = exact_physics_scenario();
    let plan = |_: &Scenario| {
        FaultPlan::new()
            .with(SimTime::from_secs_f64(4.0), FaultKind::Corrupt { node: NodeId(3) })
            .with(SimTime::from_secs_f64(5.5), FaultKind::Corrupt { node: NodeId(7) })
            .with(
                SimTime::from_secs_f64(7.0),
                FaultKind::Crash { node: NodeId(12), down_for: SimDuration::from_secs(4) },
            )
            .with(
                SimTime::from_secs_f64(9.25),
                FaultKind::Blackout { node: NodeId(6), duration: SimDuration::from_secs(2) },
            )
    };
    for kind in [ProtocolKind::SsSpst(MetricKind::EnergyAware), ProtocolKind::Flooding] {
        let report = assert_engine_equivalent(&s, kind, &plan, kind.name());
        assert!(report.generated > 100, "{}: CBR must generate traffic", kind.name());
        assert!(report.delivered > 0, "{}: the faulted grid still delivers", kind.name());
    }
}

#[test]
fn a_blackout_at_a_send_instant_silences_the_sender_on_both_engines() {
    // The sequential queue ranks faults before same-instant application sends; the
    // sharded coordinator must do the same. Pin it with a blackout landing on the
    // source at *exactly* one of its CBR send instants: pre-fix, the sharded engine
    // delivered that packet before the blackout took effect.
    let s = exact_physics_scenario();
    let at = send_instant(&s, 10);
    let source = NodeId(0);
    let plan = move |_: &Scenario| {
        FaultPlan::new()
            .with(at, FaultKind::Blackout { node: source, duration: SimDuration::from_secs(1) })
    };
    let faulted =
        assert_engine_equivalent(&s, ProtocolKind::Flooding, &plan, "blackout at send instant");
    // The blackout must actually have bitten: the send at its first instant (plus the
    // ~15 follow-ups inside the one-second fade) reaches nobody.
    let clean = run_with_plan(&s, ProtocolKind::Flooding, 0, &|_| FaultPlan::new());
    assert!(
        faulted.delivered < clean.delivered,
        "the source's blacked-out sends must not reach the group ({} >= {})",
        faulted.delivered,
        clean.delivered
    );
}

#[test]
fn faulted_ss_tdma_runs_are_engine_equivalent() {
    // Exercises the claim-row piggyback across shard lanes: the default 32-slot frame
    // gives 25 seeded nodes real slot collisions, so schedule convergence leans on
    // two-hop reads of overheard control frames — and each sharded lane only ever
    // observes its own deliveries, so those reads are correct *only* when the sender's
    // claim row rides on the frame. Disabling the piggyback makes this test fail:
    // cross-shard sender rows read as unclaimed and the sharded schedule re-converges
    // along a different trajectory than the sequential one.
    let s = exact_physics_scenario().with_mac(MacConfig::ss_tdma());
    let plan = |_: &Scenario| {
        FaultPlan::new()
            .with(SimTime::from_secs_f64(5.0), FaultKind::Corrupt { node: NodeId(8) })
            .with(SimTime::from_secs_f64(6.0), FaultKind::Corrupt { node: NodeId(16) })
    };
    let report =
        assert_engine_equivalent(&s, ProtocolKind::SsSpst(MetricKind::Hop), &plan, "ss-tdma");
    let mac = report.mac.expect("ss-tdma always attaches a MacStats block");
    assert_eq!(mac.policy, "ss-tdma");
}

#[test]
fn silence_enabled_faulted_runs_are_engine_equivalent() {
    // Suppression on: the beacon backoff state machine runs inside the agents (engine
    // agnostic), and the sharded runtime buckets the byte split through its frozen
    // recovering flags — the whole silence block must match the sequential engine.
    let s = exact_physics_scenario()
        .with_silence(ssmcast::manet::SilenceConfig::on().with_max_interval_factor(8.0));
    let plan = |_: &Scenario| {
        FaultPlan::new().with(SimTime::from_secs_f64(8.0), FaultKind::Corrupt { node: NodeId(4) })
    };
    let report =
        assert_engine_equivalent(&s, ProtocolKind::SsSpst(MetricKind::Hop), &plan, "silence");
    let silence = report.silence.expect("suppression-on runs attach a silence block");
    assert_eq!(
        silence.total_control_bytes(),
        report.control_bytes,
        "the phase split must lose nothing relative to the classic control counters"
    );
}

#[test]
fn churned_zero_energy_runs_are_engine_equivalent() {
    // Membership events replicate into every shard's queue at their exact instants;
    // with a second session and live churn the per-group blocks must still match.
    // Energy constants are zeroed because the engines reduce per-session energy in
    // different floating-point orders — with them, byte equality isolates the integer
    // trace and membership bookkeeping this test is about.
    let mut s = exact_physics_scenario().with_groups(2).with_churn_rate(0.4);
    s.radio.energy.e_elec_per_bit = 0.0;
    s.radio.energy.e_amp_per_bit = 0.0;
    let plan = |_: &Scenario| {
        FaultPlan::new().with(
            SimTime::from_secs_f64(6.5),
            FaultKind::Blackout { node: NodeId(2), duration: SimDuration::from_secs(2) },
        )
    };
    let report = assert_engine_equivalent(&s, ProtocolKind::Odmrp, &plan, "churned multi-group");
    let groups = report.groups.expect("churned runs attach per-group blocks");
    assert_eq!(groups.len(), 2);
}

#[test]
fn duty_aware_pricing_runs_are_engine_equivalent() {
    // TX power control with the duty-aware refinement prices each broadcast by its
    // farthest receiver that is awake at the delivery instant. A 1 s schedule at half
    // awake makes that pricing set differ from the receiver set on most broadcasts, and
    // finite batteries with idle drain let the different prices show in the report.
    let mut s = exact_physics_scenario().with_duty_cycle(1.0, 0.5).with_battery_capacity(5.0);
    s.lifecycle = s
        .lifecycle
        .with_idle_power(2e-3, 1e-4)
        .with_tx_power_control(true)
        .with_duty_aware_pricing(true);
    let plan = |_: &Scenario| FaultPlan::new();
    for kind in [
        ProtocolKind::DcaForward,
        ProtocolKind::MemTree,
        ProtocolKind::SsSpst(MetricKind::EnergyAware),
        ProtocolKind::Flooding,
    ] {
        let report = assert_engine_equivalent(&s, kind, &plan, kind.name());
        assert!(report.generated > 100, "{}: CBR must generate traffic", kind.name());
        assert!(report.lifetime.is_some(), "{}: finite batteries track lifetime", kind.name());
    }
}

/// Run `scenario` through the normal spec-driven runner (faults seeded from
/// `scenario.faults`, hence *probed*). `shards == 0` selects the sequential engine.
fn run_spec(scenario: &Scenario, kind: ProtocolKind, shards: u32) -> SimReport {
    let mut s = *scenario;
    if shards > 0 {
        s = s.with_shards(shards);
    }
    run_protocol(&s, kind.to_protocol().as_ref())
}

#[test]
fn probed_burst_heavy_runs_are_engine_equivalent() {
    // Each burst corrupts ~half the grid at one instant and the run is probed, so the
    // coordinator must observe the stabilization probe after *each* applied fault with
    // that fault's own state — the sequential engine's fault-by-fault snapshots.
    // Pre-fix, the sharded path batched same-instant bursts into one observation and
    // the convergence block diverged.
    let mut s = exact_physics_scenario();
    s.faults.corruption_bursts = 5;
    s.faults.corruption_fraction = 0.5;
    s.faults.window_start_s = 4.0;
    s.faults.window_end_s = 14.0;
    let sequential = run_spec(&s, ProtocolKind::SsSpst(MetricKind::EnergyAware), 0);
    let seq_bytes = serde_json::to_string(&sequential).expect("reports serialize");
    for shards in [1u32, 3] {
        let sharded = run_spec(&s, ProtocolKind::SsSpst(MetricKind::EnergyAware), shards);
        let sh_bytes = serde_json::to_string(&sharded).expect("reports serialize");
        assert_eq!(
            seq_bytes, sh_bytes,
            "probed burst-heavy sharded ({shards}) report diverged from the sequential engine"
        );
    }
    let convergence = sequential.convergence.expect("probed runs attach a convergence block");
    assert!(
        convergence.recovered + convergence.unrecovered >= 1,
        "the bursts must open at least one stabilization episode"
    );
}

#[test]
fn harvest_enabled_runs_are_engine_equivalent_at_every_shard_count() {
    // Finite batteries with continuous idle drain, deaths well inside the horizon, and
    // harvest-until-threshold wakes short enough for several death/revive cycles: the
    // sharded engine must route each wake through the owning shard's queue and fold
    // revived nodes into the same lifetime accounting the sequential loop produces.
    // Pre-fix the sharded engine silently dropped `HarvestConfig::on` entirely.
    let mut s = exact_physics_scenario();
    s.battery_capacity_j = 0.03;
    s.lifecycle = s.lifecycle.with_idle_power(2e-3, 1e-4);
    s.harvest = HarvestConfig::on(0.004, 0.01, 0.2);
    let plan = |_: &Scenario| FaultPlan::new();
    let sequential = run_with_plan(&s, ProtocolKind::Flooding, 0, &plan);
    let seq_bytes = serde_json::to_string(&sequential).expect("reports serialize");
    for shards in [1u32, 2, 8] {
        let sharded = run_with_plan(&s, ProtocolKind::Flooding, shards, &plan);
        let sh_bytes = serde_json::to_string(&sharded).expect("reports serialize");
        assert_eq!(
            seq_bytes, sh_bytes,
            "harvest-enabled sharded ({shards}) report diverged from the sequential engine"
        );
    }
    let lifetime = sequential.lifetime.expect("finite batteries attach a lifetime block");
    assert!(lifetime.deaths > 0, "the scenario must actually deplete nodes");
    assert!(
        lifetime.first_death_s.is_some_and(|t| t < s.duration_s),
        "first depletion lands inside the run"
    );
    assert!(
        lifetime.alive_curve.windows(2).any(|w| w[1] > w[0]),
        "harvest wakes must revive depleted nodes (the alive curve rises somewhere): {:?}",
        lifetime.alive_curve
    );
}
