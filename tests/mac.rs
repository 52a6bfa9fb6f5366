//! Integration tests of the pluggable MAC layer: byte-identity of the default policy,
//! contention accounting under CSMA, self-stabilizing TDMA convergence (including
//! re-convergence after injected state corruption), per-session collision attribution
//! and determinism of MAC-enabled runs across execution modes.

use ssmcast::core::MetricKind;
use ssmcast::scenario::{
    run_protocol, Experiment, MacConfig, MacKind, MobilityKind, ProtocolKind, Scenario,
    SweptParameter,
};

fn contended_base() -> Scenario {
    // Small area + doubled offered load: plenty of overlapping relays, so the
    // channel-access discipline is what separates the policies.
    let mut s = Scenario::quick_test();
    s.duration_s = 40.0;
    s.n_nodes = 20;
    s.group_size = 10;
    s.area_side_m = 400.0;
    s.data_rate_bps = 128_000.0;
    s
}

fn static_tdma_base() -> Scenario {
    let mut s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
    s.n_nodes = 16;
    s.group_size = 8;
    s.area_side_m = 400.0;
    s.mac = MacConfig::ss_tdma();
    s
}

#[test]
fn emitting_stats_for_the_default_policy_changes_no_physics() {
    let s = contended_base();
    let plain = run_protocol(&s, ProtocolKind::Flooding.to_protocol().as_ref());
    assert!(plain.mac.is_none(), "default runs must not attach a MacStats block");
    let mut with_stats = run_protocol(
        &s.with_mac(MacConfig::default().with_stats()),
        ProtocolKind::Flooding.to_protocol().as_ref(),
    );
    let mac = with_stats.mac.take().expect("emit_stats attaches the block");
    assert_eq!(with_stats, plain, "stats emission must be observation, not physics");
    assert_eq!(mac.policy, "random-jitter");
    assert_eq!(mac.frames_requested, mac.frames_sent, "the jitter policy never defers");
    assert_eq!(mac.mac_drops, 0);
    assert_eq!(mac.collisions, plain.collisions, "MAC block mirrors the channel counter");
    assert!(mac.mean_access_delay_ms > 0.0, "jitter backoff is a nonzero access delay");
    assert!(mac.airtime_utilization > 0.0 && mac.airtime_utilization < 1.0);
}

#[test]
fn carrier_sensing_and_tdma_beat_blind_jitter_under_load() {
    let s = contended_base();
    let protocol = ProtocolKind::Flooding.to_protocol();
    let jitter = run_protocol(&s.with_mac(MacConfig::default().with_stats()), protocol.as_ref());
    let csma = run_protocol(&s.with_mac(MacConfig::csma()), protocol.as_ref());
    let tdma = run_protocol(&s.with_mac(MacConfig::ss_tdma()), protocol.as_ref());
    let (j, c, t) =
        (jitter.mac.as_ref().unwrap(), csma.mac.as_ref().unwrap(), tdma.mac.as_ref().unwrap());
    assert!(j.collision_rate > 0.0, "blind jitter under load must collide");
    assert!(
        c.collision_rate < j.collision_rate,
        "carrier sensing must reduce the collision rate ({} vs {})",
        c.collision_rate,
        j.collision_rate
    );
    assert!(
        t.collision_rate < j.collision_rate,
        "slotting must reduce the collision rate ({} vs {})",
        t.collision_rate,
        j.collision_rate
    );
    // CSMA accounting: every requested frame is either on the air, dropped, or still
    // deferred past the horizon; deferrals are the retries that kept it honest.
    assert!(c.frames_sent + c.mac_drops <= c.frames_requested);
    assert!(c.deferrals > 0, "a contended channel must actually defer someone");
    assert_eq!(j.policy, "random-jitter");
    assert_eq!(c.policy, "csma");
    assert_eq!(t.policy, "ss-tdma");
}

#[test]
fn ss_tdma_converges_to_a_collision_free_schedule_on_a_static_topology() {
    // Prefix determinism: the first 30 s of the 60 s run replay the 30 s run event for
    // event, so the difference of the two collision counters is exactly the second
    // half's collisions — which must be zero once the slot schedule has stabilized.
    let protocol = ProtocolKind::SsSpst(MetricKind::Hop).to_protocol();
    let mut s = static_tdma_base();
    s.duration_s = 30.0;
    let half = run_protocol(&s, protocol.as_ref());
    s.duration_s = 60.0;
    let full = run_protocol(&s, protocol.as_ref());
    let (h, f) = (half.mac.as_ref().unwrap(), full.mac.as_ref().unwrap());
    assert_eq!(
        f.collisions, h.collisions,
        "a converged TDMA schedule must stay collision-free in the second half"
    );
    // Convergence time is reported: the last slot re-draw happened in the first half.
    match f.slot_last_redraw_s {
        Some(at) => {
            assert!(at < 30.0, "last re-draw at {at} s — schedule still churning");
            assert!(f.slot_redraws > 0);
        }
        None => assert_eq!(f.slot_redraws, 0, "no re-draw must mean a conflict-free draw"),
    }
}

#[test]
fn ss_tdma_reconverges_after_injected_state_corruption() {
    // FigFaults-style corruption bursts scramble protocol state *and* the TDMA slot
    // table mid-run (the fault hook randomizes slots without counting as recovery).
    // The same prefix trick shows the schedule heals: no collisions after 45 s.
    let protocol = ProtocolKind::SsSpst(MetricKind::Hop).to_protocol();
    let mut s = static_tdma_base();
    s.faults.corruption_bursts = 3;
    s.faults.corruption_fraction = 0.5;
    s.faults.window_start_s = 15.0;
    s.faults.window_end_s = 25.0;
    s.duration_s = 45.0;
    let half = run_protocol(&s, protocol.as_ref());
    s.duration_s = 60.0;
    let full = run_protocol(&s, protocol.as_ref());
    let (h, f) = (half.mac.as_ref().unwrap(), full.mac.as_ref().unwrap());
    assert_eq!(
        f.collisions, h.collisions,
        "TDMA must re-converge to collision-freedom after corruption"
    );
    assert!(
        f.slot_redraws >= 1,
        "healing from scrambled slots goes through conflict-driven re-draws"
    );
    if let Some(at) = f.slot_last_redraw_s {
        assert!(at < 45.0, "last re-draw at {at} s — schedule still churning after faults");
    }
}

#[test]
fn session_collision_blocks_partition_the_global_counter() {
    let mut s = contended_base();
    s.n_groups = 3;
    s.mac = MacConfig::csma();
    let report = run_protocol(&s, ProtocolKind::Odmrp.to_protocol().as_ref());
    let groups = report.groups.as_ref().expect("multi-group runs carry per-group blocks");
    assert_eq!(groups.len(), 3);
    let per_session: u64 = groups.iter().map(|g| g.collisions).sum();
    assert_eq!(per_session, report.collisions, "session collisions must sum to the global");
    assert_eq!(report.mac.as_ref().unwrap().collisions, report.collisions);
}

#[test]
fn mac_enabled_reports_are_deterministic_across_threads_and_query_modes() {
    use ssmcast::dessim::SimDuration;
    use ssmcast::manet::MediumConfig;
    let mut base = contended_base();
    base.duration_s = 25.0;
    let run = |threads: usize, s: Scenario| {
        Experiment::new(s)
            .protocol_kinds(&[ProtocolKind::SsSpst(MetricKind::Hop)])
            .sweep(SweptParameter::MacKind, [0.0, 1.0, 2.0])
            .threads(threads)
            .run()
    };
    let serial = run(1, base);
    let parallel = run(8, base);
    // On a static topology a position epoch changes no physics, so the grid-indexed
    // query path (non-zero epoch) must reproduce the exact scan (zero epoch).
    let fixed = base.with_mobility(MobilityKind::StaticGrid);
    let scan = run(4, fixed);
    let epoch = MediumConfig::default().with_epoch(SimDuration::from_millis(250));
    let grid = run(4, fixed.with_medium(epoch));
    assert_eq!(serial.len(), 3);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.reports, b.reports, "thread count changed a MAC-enabled report");
    }
    for (a, b) in scan.iter().zip(&grid) {
        assert_eq!(a.reports, b.reports, "neighbour-query path changed a MAC-enabled report");
    }
    // The sweep actually exercised all three policies.
    let kinds: Vec<MacKind> = [MacKind::RandomJitter, MacKind::Csma, MacKind::SsTdma].to_vec();
    for (cell, kind) in serial.iter().zip(kinds) {
        let mac = cell.reports[0].mac.as_ref().expect("every MacKind column reports stats");
        let expected = match kind {
            MacKind::RandomJitter => "random-jitter",
            MacKind::Csma => "csma",
            MacKind::SsTdma => "ss-tdma",
        };
        assert_eq!(mac.policy, expected);
    }
}
