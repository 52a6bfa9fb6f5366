//! Node mobility models.
//!
//! The paper uses the random-waypoint model over a 750 m × 750 m area with the fix
//! suggested by Yoon, Liu and Noble ("Random Waypoint Considered Harmful", INFOCOM'03):
//! speeds are drawn from `[v_min, v_max]` with a strictly positive `v_min`, which avoids
//! the long-run velocity decay of the classic formulation.

use crate::geometry::{Area, Vec2};
use rand::rngs::StdRng;
use rand::Rng;
use ssmcast_dessim::SimTime;

/// A mobility process: the trajectory of one node as a function of simulated time.
///
/// # Monotonicity contract
///
/// Implementations must be *monotone*: they may only be queried with non-decreasing
/// timestamps. The discrete-event runtime honours this by construction (events are
/// dispatched in time order, and the position cache in [`crate::medium::RadioMedium`]
/// snaps queries to non-decreasing epoch starts), and the stateful built-in models
/// ([`RandomWaypoint`], [`GaussMarkov`]) rely on it: they advance internal RNG-driven
/// state as time moves forward and cannot rewind. Both enforce the contract with a
/// `debug_assert!`, so a violating caller fails loudly in debug/test builds instead of
/// silently returning a position from the wrong trajectory.
pub trait Mobility {
    /// Position of the node at time `t`. `t` must be `>=` every previously queried
    /// timestamp (see the trait-level contract).
    fn position_at(&mut self, t: SimTime) -> Vec2;
}

/// A node that never moves.
#[derive(Clone, Copy, Debug)]
pub struct Stationary {
    position: Vec2,
}

impl Stationary {
    /// Create a stationary node at `position`.
    pub fn new(position: Vec2) -> Self {
        Stationary { position }
    }
}

impl Mobility for Stationary {
    fn position_at(&mut self, _t: SimTime) -> Vec2 {
        self.position
    }
}

/// Parameters for [`RandomWaypoint`].
#[derive(Clone, Copy, Debug)]
pub struct WaypointConfig {
    /// Deployment area.
    pub area: Area,
    /// Minimum speed in m/s. Must be > 0 (Yoon/Noble fix); values ≤ 0 are raised to 0.1.
    pub min_speed: f64,
    /// Maximum speed in m/s.
    pub max_speed: f64,
    /// Pause time at each waypoint, in seconds.
    pub pause_secs: f64,
}

impl WaypointConfig {
    /// The paper's scenario: 750 m × 750 m, pause 0, speed in `[0.1, v_max]`.
    pub fn paper_default(max_speed: f64) -> Self {
        WaypointConfig {
            area: Area::square(750.0),
            min_speed: 0.1,
            max_speed: max_speed.max(0.1),
            pause_secs: 0.0,
        }
    }

    fn sanitized(mut self) -> Self {
        if self.min_speed <= 0.0 {
            self.min_speed = 0.1;
        }
        if self.max_speed < self.min_speed {
            self.max_speed = self.min_speed;
        }
        if self.pause_secs < 0.0 {
            self.pause_secs = 0.0;
        }
        self
    }
}

/// One leg of a random-waypoint trajectory.
#[derive(Clone, Copy, Debug)]
struct Leg {
    /// Where the leg starts.
    from: Vec2,
    /// Destination waypoint.
    to: Vec2,
    /// When motion starts (after any pause).
    depart: f64,
    /// When the node reaches `to`.
    arrive: f64,
    /// When the post-arrival pause ends and a new leg begins.
    next_depart: f64,
}

/// The random-waypoint mobility model with a non-zero minimum speed.
///
/// The node repeatedly picks a uniform destination in the area and a uniform speed in
/// `[min_speed, max_speed]`, travels there in a straight line, pauses, and repeats.
#[derive(Debug)]
pub struct RandomWaypoint {
    config: WaypointConfig,
    rng: StdRng,
    leg: Leg,
    /// Latest queried timestamp, for the monotonicity `debug_assert!`.
    last_query: SimTime,
}

impl RandomWaypoint {
    /// Create a trajectory starting at `start` at time zero.
    pub fn new(config: WaypointConfig, start: Vec2, rng: StdRng) -> Self {
        let config = config.sanitized();
        let mut m = RandomWaypoint {
            config,
            rng,
            leg: Leg { from: start, to: start, depart: 0.0, arrive: 0.0, next_depart: 0.0 },
            last_query: SimTime::ZERO,
        };
        m.leg = m.next_leg(start, 0.0);
        m
    }

    /// Create a trajectory whose starting point is drawn uniformly from the area.
    pub fn with_random_start(config: WaypointConfig, mut rng: StdRng) -> Self {
        let config = config.sanitized();
        let start = config.area.random_point(&mut rng);
        Self::new(config, start, rng)
    }

    fn next_leg(&mut self, from: Vec2, depart: f64) -> Leg {
        let to = self.config.area.random_point(&mut self.rng);
        let speed = if self.config.max_speed > self.config.min_speed {
            self.rng.gen_range(self.config.min_speed..=self.config.max_speed)
        } else {
            self.config.min_speed
        };
        let dist = from.distance(&to);
        let travel = if speed > 0.0 { dist / speed } else { 0.0 };
        let arrive = depart + travel;
        Leg { from, to, depart, arrive, next_depart: arrive + self.config.pause_secs }
    }

    /// The configured parameters.
    pub fn config(&self) -> &WaypointConfig {
        &self.config
    }
}

impl Mobility for RandomWaypoint {
    fn position_at(&mut self, t: SimTime) -> Vec2 {
        debug_assert!(
            t >= self.last_query,
            "RandomWaypoint queried non-monotonically: {t} after {}",
            self.last_query
        );
        self.last_query = t;
        let t = t.as_secs_f64();
        // Advance legs until `t` falls within the current one.
        while t >= self.leg.next_depart {
            let from = self.leg.to;
            let depart = self.leg.next_depart;
            self.leg = self.next_leg(from, depart);
            if self.leg.next_depart <= depart {
                // A leg that takes no time (a point-sized area and no pause) cannot
                // advance the clock, so no later leg is ever reached: hold still.
                self.leg.next_depart = f64::INFINITY;
            }
        }
        if t <= self.leg.depart {
            self.leg.from
        } else if t >= self.leg.arrive {
            self.leg.to
        } else {
            let frac = (t - self.leg.depart) / (self.leg.arrive - self.leg.depart);
            self.leg.from.lerp(&self.leg.to, frac)
        }
    }
}

/// Parameters for [`GaussMarkov`].
#[derive(Clone, Copy, Debug)]
pub struct GaussMarkovConfig {
    /// Deployment area.
    pub area: Area,
    /// Long-run mean speed in m/s.
    pub mean_speed: f64,
    /// Hard cap on the instantaneous speed, m/s (speeds are clamped to `[0, max_speed]`).
    pub max_speed: f64,
    /// Memory parameter `alpha` in `[0, 1]`: 1 is straight-line motion, 0 is memoryless
    /// Brownian-like motion. The literature's usual default is 0.75.
    pub alpha: f64,
    /// Standard deviation of the speed innovation, m/s.
    pub speed_sigma: f64,
    /// Standard deviation of the direction innovation, radians.
    pub direction_sigma: f64,
    /// State-update period in seconds.
    pub step_secs: f64,
}

impl GaussMarkovConfig {
    /// A configuration matched to the paper's deployment: the node wanders at
    /// `mean_speed` with moderate memory, updating once per simulated second.
    pub fn with_mean_speed(area: Area, mean_speed: f64, max_speed: f64) -> Self {
        let mean = mean_speed.max(0.0);
        GaussMarkovConfig {
            area,
            mean_speed: mean,
            max_speed: max_speed.max(mean),
            alpha: 0.75,
            speed_sigma: (mean * 0.3).max(0.1),
            direction_sigma: 0.4,
            step_secs: 1.0,
        }
    }

    fn sanitized(mut self) -> Self {
        self.alpha = self.alpha.clamp(0.0, 1.0);
        self.mean_speed = self.mean_speed.max(0.0);
        self.max_speed = self.max_speed.max(self.mean_speed).max(0.0);
        self.speed_sigma = self.speed_sigma.max(0.0);
        self.direction_sigma = self.direction_sigma.max(0.0);
        if self.step_secs.is_nan() || self.step_secs <= 0.0 {
            self.step_secs = 1.0;
        }
        self
    }
}

/// Normalize an angle difference into `[-π, π)`.
fn wrap_angle(a: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let mut a = (a + PI) % TAU;
    if a < 0.0 {
        a += TAU;
    }
    a - PI
}

/// The Gauss–Markov mobility model (Liang & Haas): speed and direction evolve as
/// first-order autoregressive processes, which avoids both the sharp turns of random
/// waypoint and the unrealistic long-run behaviour of pure random walks.
///
/// Near the deployment boundary the mean direction is steered towards the area centre
/// (the standard edge treatment), and positions are additionally clamped to the area, so
/// trajectories never escape it.
#[derive(Debug)]
pub struct GaussMarkov {
    config: GaussMarkovConfig,
    rng: StdRng,
    /// Position at the start of the current step.
    from: Vec2,
    /// Position at the end of the current step.
    to: Vec2,
    /// Step index of the current segment (`[step * step_secs, (step+1) * step_secs)`).
    step: u64,
    speed: f64,
    direction: f64,
    /// The heading the AR(1) direction process reverts to (the model's `d̄`). Drawn at
    /// start-up; retargeted towards the area centre by the boundary treatment.
    mean_direction: f64,
    /// Latest queried timestamp, for the monotonicity `debug_assert!`.
    last_query: SimTime,
}

impl GaussMarkov {
    /// Create a trajectory starting at `start` at time zero.
    pub fn new(config: GaussMarkovConfig, start: Vec2, mut rng: StdRng) -> Self {
        let config = config.sanitized();
        let direction = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut m = GaussMarkov {
            config,
            rng,
            from: start,
            to: start,
            step: 0,
            speed: config.mean_speed,
            direction,
            mean_direction: direction,
            last_query: SimTime::ZERO,
        };
        m.to = m.advance_from(start);
        m
    }

    /// Create a trajectory whose starting point is drawn uniformly from the area.
    pub fn with_random_start(config: GaussMarkovConfig, mut rng: StdRng) -> Self {
        let config = config.sanitized();
        let start = config.area.random_point(&mut rng);
        Self::new(config, start, rng)
    }

    /// The configured parameters.
    pub fn config(&self) -> &GaussMarkovConfig {
        &self.config
    }

    /// A standard normal draw (Box–Muller; one value per call is plenty here).
    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Update speed/direction with the AR(1) recurrences and return the next position.
    fn advance_from(&mut self, pos: Vec2) -> Vec2 {
        let c = self.config;
        // Near an edge, retarget the *mean* heading towards the centre so the process
        // reverts away from the boundary instead of hugging it (Liang & Haas's edge
        // treatment). Away from edges the mean heading persists — it is the model's
        // `d̄`, not the current heading, which is what makes `alpha` genuine memory:
        // the direction reverts towards `d̄` rather than random-walking.
        let margin = 0.1 * c.area.width.min(c.area.height);
        let near_edge = pos.x < margin
            || pos.y < margin
            || pos.x > c.area.width - margin
            || pos.y > c.area.height - margin;
        if near_edge {
            let centre = Vec2::new(c.area.width / 2.0, c.area.height / 2.0);
            self.mean_direction = (centre.y - pos.y).atan2(centre.x - pos.x);
        }
        let root = (1.0 - c.alpha * c.alpha).max(0.0).sqrt();
        let gs = self.gaussian();
        let gd = self.gaussian();
        self.speed =
            (c.alpha * self.speed + (1.0 - c.alpha) * c.mean_speed + root * c.speed_sigma * gs)
                .clamp(0.0, c.max_speed);
        // Revert along the *shortest arc*: `alpha*d + (1-alpha)*d̄` applied to raw
        // angles turns the wrong way through ±π (e.g. when the edge retarget flips
        // atan2 from +π to −π), driving the node back into the boundary.
        self.direction += (1.0 - c.alpha) * wrap_angle(self.mean_direction - self.direction)
            + root * c.direction_sigma * gd;
        let next = Vec2::new(
            pos.x + self.speed * self.direction.cos() * c.step_secs,
            pos.y + self.speed * self.direction.sin() * c.step_secs,
        );
        if !c.area.contains(&next) {
            // Clamp to the boundary and point the process back inside on the next step.
            let clamped = c.area.clamp(&next);
            let centre = Vec2::new(c.area.width / 2.0, c.area.height / 2.0);
            self.direction = (centre.y - clamped.y).atan2(centre.x - clamped.x);
            self.mean_direction = self.direction;
            clamped
        } else {
            next
        }
    }
}

impl Mobility for GaussMarkov {
    fn position_at(&mut self, t: SimTime) -> Vec2 {
        debug_assert!(
            t >= self.last_query,
            "GaussMarkov queried non-monotonically: {t} after {}",
            self.last_query
        );
        self.last_query = t;
        let t = t.as_secs_f64();
        let step_secs = self.config.step_secs;
        // Advance whole steps until `t` falls inside the current segment.
        while t >= (self.step + 1) as f64 * step_secs {
            self.from = self.to;
            self.step += 1;
            let from = self.from;
            self.to = self.advance_from(from);
        }
        let seg_start = self.step as f64 * step_secs;
        let frac = ((t - seg_start) / step_secs).clamp(0.0, 1.0);
        self.from.lerp(&self.to, frac)
    }
}

/// Positions of `n` nodes on a centred, near-square grid inside `area` — the degenerate
/// "no mobility, regular topology" stress placement used by static scenarios.
///
/// Nodes fill row-major: `ceil(sqrt(n))` columns, cells of equal size, one node at each
/// cell centre. Every returned point lies strictly inside the area.
pub fn grid_positions(area: Area, n: usize) -> Vec<Vec2> {
    if n == 0 {
        return Vec::new();
    }
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let dx = area.width / cols as f64;
    let dy = area.height / rows as f64;
    (0..n)
        .map(|i| {
            let c = i % cols;
            let r = i / cols;
            Vec2::new((c as f64 + 0.5) * dx, (r as f64 + 0.5) * dy)
        })
        .collect()
}

/// A boxed mobility trait object, used by the runtime so heterogeneous models can coexist.
pub type BoxedMobility = Box<dyn Mobility + Send>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use ssmcast_dessim::SimDuration;

    fn cfg(vmax: f64) -> WaypointConfig {
        WaypointConfig::paper_default(vmax)
    }

    #[test]
    fn stationary_never_moves() {
        let mut m = Stationary::new(Vec2::new(10.0, 20.0));
        assert_eq!(m.position_at(SimTime::ZERO), Vec2::new(10.0, 20.0));
        assert_eq!(m.position_at(SimTime::from_secs(1000)), Vec2::new(10.0, 20.0));
    }

    #[test]
    fn waypoint_positions_stay_inside_area() {
        let mut m = RandomWaypoint::with_random_start(cfg(20.0), StdRng::seed_from_u64(3));
        let area = m.config().area;
        let mut t = SimTime::ZERO;
        for _ in 0..2000 {
            let p = m.position_at(t);
            assert!(area.contains(&p), "position {:?} escaped the area", p);
            t += SimDuration::from_millis(997);
        }
    }

    #[test]
    fn waypoint_respects_max_speed() {
        let vmax = 10.0;
        let mut m = RandomWaypoint::with_random_start(cfg(vmax), StdRng::seed_from_u64(7));
        let dt = 0.5;
        let mut prev = m.position_at(SimTime::ZERO);
        for k in 1..4000u64 {
            let t = SimTime::from_secs_f64(k as f64 * dt);
            let p = m.position_at(t);
            let speed = prev.distance(&p) / dt;
            assert!(speed <= vmax + 1e-6, "instantaneous speed {} exceeds max {}", speed, vmax);
            prev = p;
        }
    }

    #[test]
    fn waypoint_actually_moves_when_speed_positive() {
        let mut m = RandomWaypoint::with_random_start(cfg(5.0), StdRng::seed_from_u64(11));
        let p0 = m.position_at(SimTime::ZERO);
        let p1 = m.position_at(SimTime::from_secs(60));
        assert!(p0.distance(&p1) > 1.0, "node should have moved within a minute");
    }

    #[test]
    fn zero_min_speed_is_sanitized() {
        let c = WaypointConfig {
            area: Area::square(100.0),
            min_speed: 0.0,
            max_speed: 1.0,
            pause_secs: 0.0,
        };
        let m = RandomWaypoint::with_random_start(c, StdRng::seed_from_u64(1));
        assert!(m.config().min_speed > 0.0, "Yoon/Noble fix: min speed must be positive");
    }

    #[test]
    fn pause_keeps_node_at_waypoint() {
        let c = WaypointConfig {
            area: Area::square(50.0),
            min_speed: 10.0,
            max_speed: 10.0,
            pause_secs: 100.0,
        };
        let mut m = RandomWaypoint::new(c, Vec2::new(25.0, 25.0), StdRng::seed_from_u64(5));
        // After at most diag/10 ≈ 7 s the node reaches its first waypoint and then pauses
        // for 100 s; two samples inside the pause window must coincide.
        let a = m.position_at(SimTime::from_secs(20));
        let b = m.position_at(SimTime::from_secs(60));
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = RandomWaypoint::with_random_start(cfg(10.0), StdRng::seed_from_u64(42));
        let mut b = RandomWaypoint::with_random_start(cfg(10.0), StdRng::seed_from_u64(42));
        for k in 0..200u64 {
            let t = SimTime::from_secs(k * 3);
            assert_eq!(a.position_at(t), b.position_at(t));
        }
    }

    #[test]
    fn gauss_markov_stays_inside_area_over_a_long_horizon() {
        for seed in 0..5u64 {
            let c = GaussMarkovConfig::with_mean_speed(Area::square(750.0), 10.0, 20.0);
            let mut m = GaussMarkov::with_random_start(c, StdRng::seed_from_u64(seed));
            let mut t = SimTime::ZERO;
            for _ in 0..5000 {
                let p = m.position_at(t);
                assert!(c.area.contains(&p), "seed {seed}: position {p:?} escaped the area");
                t += SimDuration::from_millis(731);
            }
        }
    }

    #[test]
    fn gauss_markov_moves_and_is_deterministic() {
        let c = GaussMarkovConfig::with_mean_speed(Area::square(500.0), 5.0, 10.0);
        let mut a = GaussMarkov::with_random_start(c, StdRng::seed_from_u64(9));
        let mut b = GaussMarkov::with_random_start(c, StdRng::seed_from_u64(9));
        let p0 = a.position_at(SimTime::ZERO);
        assert_eq!(p0, b.position_at(SimTime::ZERO));
        let p1 = a.position_at(SimTime::from_secs(120));
        assert_eq!(p1, b.position_at(SimTime::from_secs(120)));
        assert!(p0.distance(&p1) > 1.0, "the node should wander within two minutes");
    }

    #[test]
    fn gauss_markov_speed_is_bounded_between_updates() {
        let c = GaussMarkovConfig::with_mean_speed(Area::square(750.0), 8.0, 15.0);
        let mut m = GaussMarkov::with_random_start(c, StdRng::seed_from_u64(13));
        let dt = 0.25;
        let mut prev = m.position_at(SimTime::ZERO);
        for k in 1..4000u64 {
            let t = SimTime::from_secs_f64(k as f64 * dt);
            let p = m.position_at(t);
            let speed = prev.distance(&p) / dt;
            // Boundary clamping can only shorten a step, never lengthen it.
            assert!(speed <= c.max_speed + 1e-6, "speed {speed} exceeds cap {}", c.max_speed);
            prev = p;
        }
    }

    fn noise_free_config() -> GaussMarkovConfig {
        GaussMarkovConfig {
            area: Area::square(100_000.0),
            mean_speed: 5.0,
            max_speed: 10.0,
            alpha: 0.5,
            speed_sigma: 0.0,
            direction_sigma: 0.0,
            step_secs: 1.0,
        }
    }

    #[test]
    fn gauss_markov_direction_reverts_to_its_mean_heading() {
        // Start the heading 2 rad away from the mean heading: with zero innovation
        // noise the AR(1) process must close that gap and settle into straight-line
        // motion towards d̄. A random-walk heading (reverting to the *current*
        // direction instead of d̄) would instead keep the initial offset forever.
        let start = Vec2::new(50_000.0, 50_000.0);
        let mut m = GaussMarkov::new(noise_free_config(), start, StdRng::seed_from_u64(21));
        let target = m.mean_direction;
        m.direction = target + 2.0;
        // Re-derive the first segment from the perturbed heading.
        m.to = m.advance_from(start);
        let heading_at = |m: &mut GaussMarkov, k: u64| {
            let a = m.position_at(SimTime::from_secs(k));
            let b = m.position_at(SimTime::from_secs(k + 1));
            (b.y - a.y).atan2(b.x - a.x)
        };
        let early = heading_at(&mut m, 1);
        assert!(
            wrap_angle(early - target).abs() > 0.2,
            "the perturbation must be visible early (got {early} vs mean {target})"
        );
        let late = heading_at(&mut m, 30);
        assert!(
            wrap_angle(late - target).abs() < 1e-3,
            "heading must revert to the mean heading: late {late} vs mean {target}"
        );
    }

    #[test]
    fn gauss_markov_reverts_along_the_shortest_arc() {
        // Heading 3.0 rad, mean heading -3.0 rad: the short way is ~0.28 rad through
        // ±π, the long way is ~6 rad through 0. A naive `alpha*d + (1-alpha)*d̄`
        // interpolates the long way; the wrapped update must not.
        let start = Vec2::new(50_000.0, 50_000.0);
        let mut m = GaussMarkov::new(noise_free_config(), start, StdRng::seed_from_u64(5));
        m.direction = 3.0;
        m.mean_direction = -3.0;
        m.to = m.advance_from(start);
        for k in 1..30u64 {
            let a = m.position_at(SimTime::from_secs(k));
            let b = m.position_at(SimTime::from_secs(k + 1));
            let heading = (b.y - a.y).atan2(b.x - a.x);
            let from_mean = wrap_angle(heading - (-3.0)).abs();
            assert!(
                from_mean < 0.3 + 1e-9,
                "step {k}: heading {heading} strayed {from_mean} rad from the mean — \
                 turned the long way through zero"
            );
        }
    }

    #[test]
    fn wrap_angle_normalizes_into_half_open_pi_range() {
        use std::f64::consts::PI;
        assert!((wrap_angle(3.0 * PI) - -PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - -PI).abs() < 1e-12);
        assert_eq!(wrap_angle(0.0), 0.0);
        assert!((wrap_angle(PI + 0.1) - (-PI + 0.1)).abs() < 1e-12);
        assert!((wrap_angle(-PI - 0.1) - (PI - 0.1)).abs() < 1e-12);
    }

    #[test]
    fn monotone_queries_are_accepted_including_repeats() {
        let mut w = RandomWaypoint::with_random_start(cfg(5.0), StdRng::seed_from_u64(2));
        let c = GaussMarkovConfig::with_mean_speed(Area::square(500.0), 5.0, 10.0);
        let mut g = GaussMarkov::with_random_start(c, StdRng::seed_from_u64(2));
        for secs in [0u64, 0, 3, 3, 10, 10, 11] {
            let t = SimTime::from_secs(secs);
            let wp = w.position_at(t);
            assert_eq!(wp, w.position_at(t), "repeated query at {secs}s must be stable");
            let gp = g.position_at(t);
            assert_eq!(gp, g.position_at(t), "repeated query at {secs}s must be stable");
        }
    }

    #[test]
    #[should_panic(expected = "non-monotonically")]
    #[cfg(debug_assertions)]
    fn waypoint_rejects_time_running_backwards() {
        let mut m = RandomWaypoint::with_random_start(cfg(5.0), StdRng::seed_from_u64(4));
        m.position_at(SimTime::from_secs(10));
        m.position_at(SimTime::from_secs(9));
    }

    #[test]
    #[should_panic(expected = "non-monotonically")]
    #[cfg(debug_assertions)]
    fn gauss_markov_rejects_time_running_backwards() {
        let c = GaussMarkovConfig::with_mean_speed(Area::square(500.0), 5.0, 10.0);
        let mut m = GaussMarkov::with_random_start(c, StdRng::seed_from_u64(4));
        m.position_at(SimTime::from_secs(10));
        m.position_at(SimTime::from_secs(9));
    }

    #[test]
    fn grid_positions_are_inside_and_distinct() {
        for n in [1usize, 2, 9, 10, 50] {
            let area = Area::square(750.0);
            let pts = grid_positions(area, n);
            assert_eq!(pts.len(), n);
            for (i, p) in pts.iter().enumerate() {
                assert!(area.contains(p), "grid point {p:?} outside the area");
                for q in &pts[i + 1..] {
                    assert!(p.distance(q) > 1.0, "grid points coincide");
                }
            }
        }
        assert!(grid_positions(Area::square(100.0), 0).is_empty());
    }
}
