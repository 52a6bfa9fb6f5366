//! Property tests for the mobility models: positions never escape the deployment area,
//! chord speeds never exceed the configured maximum (and reach at least the minimum
//! inside waypoint legs), and same-seed trajectories reproduce exactly across fresh
//! model instances — for arbitrary seeds and query timestamps.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssmcast::dessim::{SimDuration, SimTime};
use ssmcast::manet::{
    Area, GaussMarkov, GaussMarkovConfig, Mobility, RandomWaypoint, Vec2, WaypointConfig,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random waypoint stays inside the field and never moves faster than `v_max`,
    /// for arbitrary seeds, speed ranges and (monotone) query cadences.
    #[test]
    fn waypoint_respects_bounds_and_speed_cap(
        seed in 0u64..10_000,
        v_max in 0.5f64..25.0,
        step_ms in 50u64..3_000,
    ) {
        let cfg = WaypointConfig {
            area: Area::square(750.0),
            min_speed: 0.1,
            max_speed: v_max,
            pause_secs: 0.0,
        };
        let mut m = RandomWaypoint::with_random_start(cfg, StdRng::seed_from_u64(seed));
        let dt = step_ms as f64 / 1_000.0;
        let mut prev = m.position_at(SimTime::ZERO);
        let mut fastest: f64 = 0.0;
        for k in 1..600u64 {
            let t = SimTime::from_nanos(k * step_ms * 1_000_000);
            let p = m.position_at(t);
            prop_assert!(cfg.area.contains(&p), "escaped the area: {p:?}");
            let speed = prev.distance(&p) / dt;
            prop_assert!(
                speed <= v_max + 1e-6,
                "chord speed {speed} exceeds v_max {v_max}"
            );
            fastest = fastest.max(speed);
            prev = p;
        }
        // With zero pause the node travels every leg at a speed in [v_min, v_max], so
        // fine-grained chords inside a leg must reach at least v_min at some point.
        prop_assert!(
            fastest >= cfg.min_speed - 1e-6,
            "never reached v_min = {}: fastest observed {fastest}",
            cfg.min_speed
        );
    }

    /// Same seed ⇒ the same trajectory, from a freshly constructed model instance,
    /// at every queried timestamp.
    #[test]
    fn waypoint_same_seed_reproduces_across_fresh_instances(
        seed in 0u64..10_000,
        v_max in 0.5f64..20.0,
        step_ms in 100u64..5_000,
    ) {
        let cfg = WaypointConfig::paper_default(v_max);
        let mut a = RandomWaypoint::with_random_start(cfg, StdRng::seed_from_u64(seed));
        let mut b = RandomWaypoint::with_random_start(cfg, StdRng::seed_from_u64(seed));
        for k in 0..300u64 {
            let t = SimTime::from_nanos(k * step_ms * 1_000_000);
            prop_assert_eq!(a.position_at(t), b.position_at(t));
        }
    }

    /// Gauss–Markov stays inside the field and under its hard speed cap for arbitrary
    /// seeds, mean speeds and query cadences (boundary clamping only shortens steps).
    #[test]
    fn gauss_markov_respects_bounds_and_speed_cap(
        seed in 0u64..10_000,
        mean_speed in 0.5f64..15.0,
        step_ms in 50u64..2_000,
    ) {
        let cfg = GaussMarkovConfig::with_mean_speed(
            Area::square(750.0),
            mean_speed,
            mean_speed * 2.0,
        );
        let mut m = GaussMarkov::with_random_start(cfg, StdRng::seed_from_u64(seed));
        let dt = step_ms as f64 / 1_000.0;
        let mut prev = m.position_at(SimTime::ZERO);
        for k in 1..600u64 {
            let t = SimTime::from_nanos(k * step_ms * 1_000_000);
            let p = m.position_at(t);
            prop_assert!(cfg.area.contains(&p), "escaped the area: {p:?}");
            let speed = prev.distance(&p) / dt;
            prop_assert!(
                speed <= cfg.max_speed + 1e-6,
                "chord speed {speed} exceeds cap {}",
                cfg.max_speed
            );
            prev = p;
        }
    }

    /// Same-seed Gauss–Markov trajectories reproduce across fresh instances.
    #[test]
    fn gauss_markov_same_seed_reproduces_across_fresh_instances(
        seed in 0u64..10_000,
        mean_speed in 0.5f64..15.0,
    ) {
        let cfg = GaussMarkovConfig::with_mean_speed(Area::square(600.0), mean_speed, 20.0);
        let mut a = GaussMarkov::with_random_start(cfg, StdRng::seed_from_u64(seed));
        let mut b = GaussMarkov::with_random_start(cfg, StdRng::seed_from_u64(seed));
        for k in 0..300u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(k * 731);
            prop_assert_eq!(a.position_at(t), b.position_at(t));
        }
    }
}

/// A point-sized area gives zero-length legs and, with no pause, legs that take no time:
/// the trajectory must hold still at the point instead of looping on legs forever.
#[test]
fn waypoint_on_a_point_sized_area_holds_still() {
    let corner = Vec2::ZERO;
    let cfg = WaypointConfig { area: Area::square(0.0), ..WaypointConfig::paper_default(10.0) };
    let mut m = RandomWaypoint::new(cfg, corner, StdRng::seed_from_u64(3));
    for secs in [0u64, 1, 60, 3_600] {
        assert_eq!(m.position_at(SimTime::from_secs(secs)), corner, "t = {secs} s");
    }
    let mut random_start = RandomWaypoint::with_random_start(cfg, StdRng::seed_from_u64(4));
    assert_eq!(random_start.position_at(SimTime::from_secs(1)), corner);
}
