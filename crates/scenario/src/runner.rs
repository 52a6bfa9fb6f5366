//! Building and running one scenario: roles, mobility, setup, and protocol execution.
//!
//! The primary entry point is [`run_protocol`], which wires a [`crate::Protocol`] into
//! the scenario's deterministic setup. Grid execution (protocols × x-values ×
//! repetitions) lives in the [`crate::Experiment`] builder.

use crate::protocol::Protocol;
use crate::scenario::{MobilityKind, Scenario};
use rand::seq::SliceRandom;
use rand::Rng;
use ssmcast_dessim::{SeedSequence, SimTime};
use ssmcast_manet::{
    grid_positions, Area, BoxedMobility, FaultPlan, GaussMarkov, GaussMarkovConfig, GroupId,
    GroupRole, MembershipChange, MembershipEvent, NodeId, RandomWaypoint, SessionSetup, SimReport,
    SimSetup, Stationary, TrafficConfig, WaypointConfig,
};

/// Assign group roles for session 0: node 0 is the source; `receiver_count` further
/// members are drawn uniformly (but deterministically for the scenario seed) from the
/// remaining nodes. Kept as the historical single-group entry point — it is exactly
/// [`assign_session_roles`] with `session == 0`, byte-compatible with pre-multi-group
/// builds.
pub fn assign_roles(scenario: &Scenario, seeds: &SeedSequence) -> Vec<GroupRole> {
    assign_session_roles(scenario, seeds, 0)
}

/// Assign group roles for one session of a (possibly multi-group) scenario. Session `g`
/// is sourced at node `g % n_nodes`; its members are drawn from the remaining nodes with
/// a per-session seed stream, so sessions overlap organically (a node may be a member of
/// several groups and the source of one of them). Session 0 draws from the same stream
/// the single-group harness always used, keeping legacy runs byte-identical.
pub fn assign_session_roles(
    scenario: &Scenario,
    seeds: &SeedSequence,
    session: usize,
) -> Vec<GroupRole> {
    let n = scenario.n_nodes;
    let source = session % n.max(1);
    let mut roles = vec![GroupRole::NonMember; n];
    roles[source] = GroupRole::Source;
    let mut candidates: Vec<usize> = (0..n).filter(|&i| i != source).collect();
    let mut rng = if session == 0 {
        seeds.stream("membership")
    } else {
        seeds.indexed_stream("membership", session as u64)
    };
    candidates.shuffle(&mut rng);
    for &idx in candidates.iter().take(scenario.receiver_count()) {
        roles[idx] = GroupRole::Member;
    }
    roles
}

/// Materialise one session's membership-churn schedule from the scenario's
/// `member_churn_rate`: `round(rate × traffic window)` events at seeded uniform times,
/// each toggling a seeded non-source node (members leave, non-members join). The walk
/// tracks the evolving member set, so every event is effectual when applied in order.
/// Deterministic per `(scenario, seeds, session)`.
pub fn build_churn(
    scenario: &Scenario,
    seeds: &SeedSequence,
    session: usize,
    roles: &[GroupRole],
) -> Vec<MembershipEvent> {
    let window = (scenario.duration_s - scenario.warmup_s).max(0.0);
    let count = (scenario.member_churn_rate.max(0.0) * window).round() as usize;
    if count == 0 || scenario.n_nodes < 2 {
        return Vec::new();
    }
    let mut rng = seeds.indexed_stream("churn", session as u64);
    let mut times: Vec<f64> =
        (0..count).map(|_| rng.gen_range(scenario.warmup_s..=scenario.duration_s)).collect();
    times.sort_by(f64::total_cmp);
    let source = roles.iter().position(|r| r.is_source()).unwrap_or(0);
    let mut member: Vec<bool> = roles.iter().map(|r| matches!(r, GroupRole::Member)).collect();
    let mut events = Vec::with_capacity(count);
    for t in times {
        // Draw a non-source node; toggling keeps the schedule valid by construction.
        let mut node = rng.gen_range(0..scenario.n_nodes - 1);
        if node >= source {
            node += 1;
        }
        let change = if member[node] { MembershipChange::Leave } else { MembershipChange::Join };
        member[node] = !member[node];
        events.push(MembershipEvent {
            at: SimTime::from_secs_f64(t),
            node: NodeId(node as u32),
            change,
        });
    }
    events
}

/// Build one mobility process per node according to the scenario's [`MobilityKind`].
///
/// Every model draws from the same `"mobility"` seed streams, so switching models leaves
/// all other randomness (membership, traffic, loss) untouched — protocol comparisons
/// across mobility regimes stay paired.
pub fn build_mobility(scenario: &Scenario, seeds: &SeedSequence) -> Vec<BoxedMobility> {
    let area = Area::square(scenario.area_side_m);
    let n = scenario.n_nodes as u64;
    match scenario.mobility {
        MobilityKind::RandomWaypoint => {
            let cfg = WaypointConfig {
                area,
                min_speed: scenario.min_speed_mps,
                max_speed: scenario.max_speed_mps,
                pause_secs: scenario.pause_secs,
            };
            (0..n)
                .map(|i| {
                    Box::new(RandomWaypoint::with_random_start(
                        cfg,
                        seeds.indexed_stream("mobility", i),
                    )) as BoxedMobility
                })
                .collect()
        }
        MobilityKind::GaussMarkov => {
            // Match random waypoint's long-run mean speed so velocity sweeps stay
            // comparable across models.
            let mean = 0.5 * (scenario.min_speed_mps + scenario.max_speed_mps.max(0.0));
            let cfg = GaussMarkovConfig::with_mean_speed(area, mean, scenario.max_speed_mps);
            (0..n)
                .map(|i| {
                    Box::new(GaussMarkov::with_random_start(
                        cfg,
                        seeds.indexed_stream("mobility", i),
                    )) as BoxedMobility
                })
                .collect()
        }
        MobilityKind::StaticGrid => grid_positions(area, scenario.n_nodes)
            .into_iter()
            .map(|p| Box::new(Stationary::new(p)) as BoxedMobility)
            .collect(),
    }
}

/// Build the [`SimSetup`] shared by every protocol for this scenario: one
/// [`SessionSetup`] per group (roles, CBR flow, churn schedule), all derived from the
/// scenario's seed sequence so every protocol in a comparison faces identical sessions.
pub fn build_setup(scenario: &Scenario, seeds: SeedSequence) -> SimSetup {
    let stop = SimTime::from_secs_f64(scenario.duration_s);
    let n_groups = scenario.n_groups.max(1);
    let sessions: Vec<SessionSetup> = (0..n_groups)
        .map(|g| {
            let roles = assign_session_roles(scenario, &seeds, g);
            let churn = build_churn(scenario, &seeds, g, &roles);
            let traffic = TrafficConfig {
                group: GroupId(g as u16),
                source: NodeId((g % scenario.n_nodes.max(1)) as u32),
                data_rate_bps: scenario.data_rate_bps,
                packet_size_bytes: scenario.packet_size_bytes,
                start: SimTime::from_secs_f64(scenario.warmup_s),
                stop,
            };
            SessionSetup::new(traffic, roles).with_churn(churn)
        })
        .collect();
    SimSetup {
        radio: scenario.radio,
        sessions,
        n_nodes: scenario.n_nodes,
        battery_capacity_j: scenario.battery_capacity_j,
        lifecycle: scenario.lifecycle,
        // The schedule is materialised from the scenario's spec with the scenario's own
        // seed stream: same (scenario, seed) ⇒ same fault events, for every protocol.
        faults: FaultPlan::from_spec(&scenario.faults, scenario.n_nodes, &seeds),
        mac: scenario.mac,
        seeds,
        medium: scenario.medium,
        engine: scenario.engine,
        silence: scenario.silence,
        metrics: scenario.metrics,
        harvest: scenario.harvest,
    }
}

/// Run `scenario` under `protocol`: builds the deterministic setup and mobility for the
/// scenario's seed and hands them to the protocol factory. This is the primitive every
/// higher layer ([`crate::Experiment`], the compat shims) bottoms out in.
pub fn run_protocol(scenario: &Scenario, protocol: &dyn Protocol) -> SimReport {
    let seeds = SeedSequence::new(scenario.seed);
    let setup = build_setup(scenario, seeds);
    let mobility = build_mobility(scenario, &seeds);
    protocol.run(scenario, setup, mobility)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolRegistry;
    use crate::scenario::ProtocolKind;
    use ssmcast_core::MetricKind;
    use ssmcast_dessim::SimDuration;

    #[test]
    fn roles_have_one_source_and_the_requested_receivers() {
        let s = Scenario::quick_test();
        let seeds = SeedSequence::new(s.seed);
        let roles = assign_roles(&s, &seeds);
        assert_eq!(roles.iter().filter(|r| matches!(r, GroupRole::Source)).count(), 1);
        assert_eq!(
            roles.iter().filter(|r| matches!(r, GroupRole::Member)).count(),
            s.receiver_count()
        );
        // Deterministic for a fixed seed.
        assert_eq!(roles, assign_roles(&s, &seeds));
    }

    #[test]
    fn session_zero_roles_match_the_legacy_single_group_draw() {
        let s = Scenario::quick_test();
        let seeds = SeedSequence::new(s.seed);
        assert_eq!(assign_roles(&s, &seeds), assign_session_roles(&s, &seeds, 0));
    }

    #[test]
    fn later_sessions_get_their_own_sources_and_member_draws() {
        let s = Scenario::quick_test();
        let seeds = SeedSequence::new(s.seed);
        let r0 = assign_session_roles(&s, &seeds, 0);
        let r1 = assign_session_roles(&s, &seeds, 1);
        let r2 = assign_session_roles(&s, &seeds, 2);
        assert!(matches!(r1[1], GroupRole::Source), "session 1 is sourced at node 1");
        assert!(matches!(r2[2], GroupRole::Source));
        for (g, roles) in [(0, &r0), (1, &r1), (2, &r2)] {
            assert_eq!(
                roles.iter().filter(|r| matches!(r, GroupRole::Source)).count(),
                1,
                "session {g}"
            );
            assert_eq!(
                roles.iter().filter(|r| matches!(r, GroupRole::Member)).count(),
                s.receiver_count(),
                "session {g}"
            );
        }
        assert_ne!(r0, r1, "independent seeded draws");
        // Deterministic per (seed, session).
        assert_eq!(r1, assign_session_roles(&s, &seeds, 1));
    }

    #[test]
    fn churn_schedules_are_seeded_sorted_and_spare_the_source() {
        let mut s = Scenario::quick_test();
        s.member_churn_rate = 0.5;
        s.duration_s = 60.0;
        s.warmup_s = 10.0;
        let seeds = SeedSequence::new(11);
        let roles = assign_session_roles(&s, &seeds, 0);
        let churn = build_churn(&s, &seeds, 0, &roles);
        assert_eq!(churn.len(), 25, "round(0.5 × 50 s window)");
        let source = NodeId(0);
        let mut member: Vec<bool> = roles.iter().map(|r| matches!(r, GroupRole::Member)).collect();
        let mut last = SimTime::ZERO;
        for ev in &churn {
            assert!(ev.at >= last, "events sorted by time");
            last = ev.at;
            assert_ne!(ev.node, source, "the source never churns");
            // Every event is effectual when replayed in order.
            match ev.change {
                ssmcast_manet::MembershipChange::Join => {
                    assert!(!member[ev.node.index()], "join targets a non-member");
                    member[ev.node.index()] = true;
                }
                ssmcast_manet::MembershipChange::Leave => {
                    assert!(member[ev.node.index()], "leave targets a member");
                    member[ev.node.index()] = false;
                }
            }
        }
        assert_eq!(churn, build_churn(&s, &seeds, 0, &roles), "deterministic per seed");
        assert_ne!(churn, build_churn(&s, &seeds, 1, &roles), "per-session streams differ");
        // Rate zero means no churn at all.
        let mut quiet = s;
        quiet.member_churn_rate = 0.0;
        assert!(build_churn(&quiet, &seeds, 0, &roles).is_empty());
    }

    #[test]
    fn multi_group_setup_builds_one_session_per_group() {
        let mut s = Scenario::quick_test();
        s.n_groups = 3;
        s.member_churn_rate = 0.2;
        let setup = build_setup(&s, SeedSequence::new(s.seed));
        assert_eq!(setup.n_sessions(), 3);
        assert_eq!(setup.n_nodes, s.n_nodes);
        assert!(setup.has_group_dynamics());
        for (g, session) in setup.sessions.iter().enumerate() {
            assert_eq!(session.traffic.group, GroupId(g as u16));
            assert_eq!(session.traffic.source, NodeId(g as u32));
            assert!(matches!(session.roles[g], GroupRole::Source));
            assert!(!session.churn.is_empty(), "session {g} churns");
        }
    }

    #[test]
    fn the_experiment_engine_matches_a_directly_seeded_run_protocol_call() {
        let mut s = Scenario::quick_test();
        s.duration_s = 20.0;
        s.n_nodes = 12;
        s.group_size = 5;
        let mut manual = s;
        manual.seed = crate::derive_cell_seed(s.seed, 0, 0);
        let direct = run_protocol(&manual, ProtocolKind::Flooding.to_protocol().as_ref());
        let cells = crate::Experiment::new(s).protocol_kinds(&[ProtocolKind::Flooding]).run();
        let engine = cells.into_iter().next().and_then(|c| c.reports.into_iter().next());
        assert_eq!(engine.as_ref(), Some(&direct));
    }

    #[test]
    fn mobility_is_one_process_per_node_for_every_kind() {
        let mut s = Scenario::quick_test();
        let seeds = SeedSequence::new(1);
        for kind in MobilityKind::ALL {
            s.mobility = kind;
            assert_eq!(build_mobility(&s, &seeds).len(), s.n_nodes, "{}", kind.name());
        }
    }

    #[test]
    fn every_mobility_kind_stays_inside_the_deployment_area() {
        let mut s = Scenario::quick_test();
        s.max_speed_mps = 20.0;
        let area = Area::square(s.area_side_m);
        let seeds = SeedSequence::new(7);
        for kind in MobilityKind::ALL {
            s.mobility = kind;
            let mut mobility = build_mobility(&s, &seeds);
            for (i, m) in mobility.iter_mut().enumerate() {
                let mut t = SimTime::ZERO;
                // Query a long horizon (≈ 30 simulated minutes) at coarse steps.
                for _ in 0..1000 {
                    let p = m.position_at(t);
                    assert!(area.contains(&p), "{} node {i}: {p:?} escaped the area", kind.name());
                    t += SimDuration::from_millis(1_873);
                }
            }
        }
    }

    #[test]
    fn static_grid_nodes_do_not_move() {
        let s = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
        let seeds = SeedSequence::new(3);
        let mut mobility = build_mobility(&s, &seeds);
        for m in mobility.iter_mut() {
            let p0 = m.position_at(SimTime::ZERO);
            assert_eq!(p0, m.position_at(SimTime::from_secs(1800)));
        }
    }

    #[test]
    fn quick_scenario_runs_under_every_protocol() {
        let mut s = Scenario::quick_test();
        s.duration_s = 30.0;
        s.n_nodes = 20;
        s.group_size = 8;
        let registry = ProtocolRegistry::with_builtins();
        for name in registry.names() {
            let protocol = registry.lookup(name).expect("listed name resolves");
            let report = run_protocol(&s, protocol.as_ref());
            assert!(report.generated > 100, "{name}: CBR must generate traffic");
            assert!(report.pdr >= 0.0 && report.pdr <= 1.0);
            assert!(report.total_energy_j > 0.0, "{name}: someone must transmit");
            assert_eq!(report.protocol, name);
        }
    }

    #[test]
    fn gauss_markov_scenario_runs_end_to_end() {
        let mut s = Scenario::quick_test().with_mobility(MobilityKind::GaussMarkov);
        s.duration_s = 30.0;
        s.n_nodes = 20;
        s.group_size = 8;
        let protocol = ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol();
        let report = run_protocol(&s, protocol.as_ref());
        assert!(report.generated > 100);
        assert!(report.pdr > 0.0, "a connected-ish 20-node field should deliver something");
    }

    #[test]
    fn runs_are_reproducible_for_a_seed() {
        let mut s = Scenario::quick_test();
        s.duration_s = 25.0;
        s.n_nodes = 15;
        let protocol = ProtocolKind::SsSpst(MetricKind::EnergyAware).to_protocol();
        let a = run_protocol(&s, protocol.as_ref());
        let b = run_protocol(&s, protocol.as_ref());
        assert_eq!(a, b);
    }

    #[test]
    fn repetitions_use_distinct_seeds() {
        let mut s = Scenario::quick_test();
        s.duration_s = 25.0;
        s.n_nodes = 15;
        let cells = crate::Experiment::new(s).protocol_kinds(&[ProtocolKind::Odmrp]).reps(2).run();
        let reports = cells.into_iter().next().map(|c| c.reports).unwrap_or_default();
        assert_eq!(reports.len(), 2);
        assert_ne!(reports[0], reports[1], "different repetitions see different mobility");
    }
}
