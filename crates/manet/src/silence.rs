//! Beacon-suppression configuration: silent stabilization in the style of
//! Devismes, Masuzawa & Tixeuil.
//!
//! The paper's SS protocols beacon at a fixed cadence forever, so in a legitimate
//! state every control byte is pure overhead. With suppression enabled, an agent
//! that has observed its *local* legitimacy predicate hold for
//! [`SilenceConfig::QUIET_ROUNDS`] (3) consecutive beacon rounds backs its beacon timer
//! off exponentially — each further quiet round multiplies the interval by
//! [`SilenceConfig::BACKOFF_FACTOR`] (2), capped at
//! [`SilenceConfig::max_interval_factor`] × the base interval (the heartbeat floor
//! that keeps neighbour tables alive). The cap is the only tunable part of the
//! schedule. Any evidence of illegitimacy — a neighbour
//! appearing or expiring, a parent change or loss, corrupted state, an overheard
//! beacon inconsistent with the recorded neighbour view — snaps the interval back to
//! the base `beacon_interval` immediately.
//!
//! The default is **off**, which reproduces always-on beaconing byte for byte: no
//! extra RNG draws, no wire-format change, no report block.

use serde::{Deserialize, Serialize};
use ssmcast_dessim::SimDuration;

/// Adaptive beacon-suppression knobs for the self-stabilizing tree agents.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SilenceConfig {
    /// Master switch. `false` (the default) reproduces always-on beaconing exactly.
    pub enabled: bool,
    /// Cap on the suppressed interval, as a multiple of the base beacon interval.
    /// `1.0` disables the backoff while keeping phase accounting on.
    pub max_interval_factor: f64,
}

impl SilenceConfig {
    /// Consecutive quiet beacon rounds before the first backoff step.
    pub const QUIET_ROUNDS: u32 = 3;
    /// Interval multiplier applied per additional quiet round once backoff has begun.
    pub const BACKOFF_FACTOR: f64 = 2.0;

    /// Suppression disabled (the default): classic fixed-cadence beaconing.
    pub fn off() -> Self {
        SilenceConfig { enabled: false, max_interval_factor: 8.0 }
    }

    /// Suppression enabled with the default schedule: after 3 quiet rounds, double
    /// the interval per quiet round up to 8 × the base interval.
    pub fn on() -> Self {
        SilenceConfig { enabled: true, ..Self::off() }
    }

    /// The same configuration with a different backoff cap (clamped to ≥ 1).
    pub fn with_max_interval_factor(mut self, factor: f64) -> Self {
        self.max_interval_factor = factor.max(1.0);
        self
    }

    /// The beacon interval at backoff `level` (number of quiet rounds past the
    /// threshold), given the agent's base interval. Level 0 is the base cadence.
    pub fn interval_at(&self, base: SimDuration, level: u32) -> SimDuration {
        if !self.enabled || level == 0 {
            return base;
        }
        let factor = Self::BACKOFF_FACTOR.powi(level.min(64) as i32).min(self.max_interval_factor);
        base.mul_f64(factor.max(1.0))
    }
}

impl Default for SilenceConfig {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_keeps_the_base_cadence() {
        let cfg = SilenceConfig::default();
        assert!(!cfg.enabled);
        let base = SimDuration::from_secs(2);
        assert_eq!(cfg.interval_at(base, 0), base);
        assert_eq!(cfg.interval_at(base, 10), base, "disabled suppression never backs off");
    }

    #[test]
    fn backoff_doubles_per_level_and_caps_at_the_heartbeat() {
        let cfg = SilenceConfig::on();
        let base = SimDuration::from_secs(2);
        assert_eq!(cfg.interval_at(base, 0), base);
        assert_eq!(cfg.interval_at(base, 1), base.mul_f64(2.0));
        assert_eq!(cfg.interval_at(base, 2), base.mul_f64(4.0));
        assert_eq!(cfg.interval_at(base, 3), base.mul_f64(8.0));
        assert_eq!(cfg.interval_at(base, 20), base.mul_f64(8.0), "capped");
    }

    #[test]
    fn cap_of_one_keeps_the_base_cadence_even_when_enabled() {
        let cfg = SilenceConfig::on().with_max_interval_factor(1.0);
        let base = SimDuration::from_secs(2);
        assert_eq!(cfg.interval_at(base, 5), base);
        assert_eq!(SilenceConfig::on().with_max_interval_factor(0.2).max_interval_factor, 1.0);
    }
}
