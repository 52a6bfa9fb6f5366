//! Scenario definitions: everything that parameterises one simulation run.

use serde::{Deserialize, Serialize};
use ssmcast_core::MetricKind;
use ssmcast_dessim::SimDuration;
use ssmcast_manet::{
    EngineConfig, FaultPlanSpec, HarvestConfig, LifecycleConfig, MacConfig, MediumConfig,
    RadioConfig, SilenceConfig,
};
use ssmcast_metrics::MetricsConfig;

/// Which multicast protocol to run on a scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// One of the self-stabilizing tree protocols, selected by its cost metric: the
    /// SS-SPST family, or SS-MST under [`MetricKind::Bottleneck`].
    SsSpst(MetricKind),
    /// Multicast AODV (tree-based, on-demand).
    Maodv,
    /// ODMRP (mesh-based, on-demand).
    Odmrp,
    /// Blind flooding (reference only; not in the paper's figures).
    Flooding,
    /// MEM-Tree: centralized minimum-energy multicast tree (BIP greedy over the t = 0
    /// topology snapshot), forwarded without repair — the lower-bound energy baseline.
    MemTree,
    /// DCA-Forward: MEM-Tree forwarding made duty-cycle-aware — transmissions are
    /// deferred into downstream receivers' scheduled wake windows.
    DcaForward,
}

impl ProtocolKind {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::SsSpst(kind) => kind.protocol_name(),
            ProtocolKind::Maodv => "MAODV",
            ProtocolKind::Odmrp => "ODMRP",
            ProtocolKind::Flooding => "Flooding",
            ProtocolKind::MemTree => "MEM-Tree",
            ProtocolKind::DcaForward => "DCA-Forward",
        }
    }

    /// The four SS-SPST variants compared in Figures 7–9.
    pub fn ss_variants() -> [ProtocolKind; 4] {
        [
            ProtocolKind::SsSpst(MetricKind::Hop),
            ProtocolKind::SsSpst(MetricKind::TxLink),
            ProtocolKind::SsSpst(MetricKind::Farthest),
            ProtocolKind::SsSpst(MetricKind::EnergyAware),
        ]
    }

    /// The four protocols compared in Figures 12–16.
    pub fn paper_four() -> [ProtocolKind; 4] {
        [
            ProtocolKind::Maodv,
            ProtocolKind::SsSpst(MetricKind::Hop),
            ProtocolKind::SsSpst(MetricKind::EnergyAware),
            ProtocolKind::Odmrp,
        ]
    }

    /// SS-SPST and SS-SPST-E, compared in the beacon-interval study (Figures 10–11).
    pub fn beacon_pair() -> [ProtocolKind; 2] {
        [ProtocolKind::SsSpst(MetricKind::Hop), ProtocolKind::SsSpst(MetricKind::EnergyAware)]
    }
}

/// Which mobility model drives node trajectories in a scenario.
///
/// The paper evaluates random waypoint only; the plugin enum opens the same experiment
/// grid to other motion regimes (see `EXPERIMENTS.md`). New models plug in here and in
/// [`crate::runner::build_mobility`] without touching any protocol code.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum MobilityKind {
    /// Random waypoint with the Yoon/Noble non-zero minimum-speed fix (the paper's model).
    RandomWaypoint,
    /// Gauss–Markov: temporally correlated speed and heading. Sustained drift stresses
    /// tree repair differently from waypoint's stop-and-turn motion.
    GaussMarkov,
    /// No motion: nodes on a centred grid. The degenerate regular topology used for
    /// stress and correctness scenarios.
    StaticGrid,
}

impl MobilityKind {
    /// Every built-in mobility model.
    pub const ALL: [MobilityKind; 3] =
        [MobilityKind::RandomWaypoint, MobilityKind::GaussMarkov, MobilityKind::StaticGrid];

    /// Display name used in tables and file names.
    pub fn name(self) -> &'static str {
        match self {
            MobilityKind::RandomWaypoint => "random-waypoint",
            MobilityKind::GaussMarkov => "gauss-markov",
            MobilityKind::StaticGrid => "static-grid",
        }
    }
}

/// One simulation scenario: the paper's Section 6 settings, all overridable.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of nodes (paper: 50).
    pub n_nodes: usize,
    /// Side of the square deployment area in metres (paper: 750).
    pub area_side_m: f64,
    /// Maximum random-waypoint speed, m/s (paper sweeps 1–20).
    pub max_speed_mps: f64,
    /// Minimum random-waypoint speed, m/s (> 0 per the Yoon/Noble fix).
    pub min_speed_mps: f64,
    /// Pause time at each waypoint, seconds.
    pub pause_secs: f64,
    /// Multicast group size including the source (paper sweeps 10–50, default 20).
    /// Every session of a multi-group scenario uses this size.
    pub group_size: usize,
    /// Number of concurrent multicast sessions sharing the medium (paper: 1). Session
    /// `g` is sourced at node `g % n_nodes` with its own seeded member draw; see
    /// [`crate::runner::assign_session_roles`].
    pub n_groups: usize,
    /// Membership churn: expected join/leave events per second per session, drawn
    /// (seeded) over the traffic window. 0 (the default) reproduces the paper's static
    /// memberships; any positive rate makes the harness probe legitimacy and attach
    /// per-group blocks to reports.
    pub member_churn_rate: f64,
    /// Beacon interval for the SS-SPST family, seconds (paper: 2).
    pub beacon_interval_s: f64,
    /// Simulated duration, seconds (paper: 1800; the harness default is shorter so a full
    /// figure regenerates in minutes — see EXPERIMENTS.md).
    pub duration_s: f64,
    /// Traffic warm-up before the CBR source starts, seconds.
    pub warmup_s: f64,
    /// CBR source rate, bits/s (paper: 64 kbps).
    pub data_rate_bps: f64,
    /// CBR packet size, bytes.
    pub packet_size_bytes: u32,
    /// Radio and energy configuration.
    pub radio: RadioConfig,
    /// Battery capacity per node, joules. The paper's experiments model no depletion
    /// (`f64::INFINITY`, the default); set a finite capacity for network-lifetime
    /// studies and to make [`Self::faults`] battery-drain spikes physically meaningful.
    /// A drained battery is a permanent node death, and any finite capacity attaches a
    /// `LifetimeStats` block to the run report.
    pub battery_capacity_j: f64,
    /// Energy-lifecycle knobs: radio duty-cycling, continuous idle/sleep drain and
    /// distance-based TX power control. [`LifecycleConfig::off`] (the default)
    /// reproduces the paper's always-on, flat-TX-cost model byte for byte.
    pub lifecycle: LifecycleConfig,
    /// Mobility model plugged into [`crate::runner::build_mobility`].
    pub mobility: MobilityKind,
    /// Radio medium layer: position-cache epoch and neighbour-query mode. The default
    /// (exact positions, grid index) reproduces the brute-force physics byte for byte;
    /// a non-zero epoch trades position fidelity for large-n throughput.
    pub medium: MediumConfig,
    /// Fault-injection knobs. [`FaultPlanSpec::none`] (the default) runs fault-free and
    /// byte-identical to pre-fault builds; any configured fault makes the harness run a
    /// stabilization probe and attach a `ConvergenceStats` block to the report.
    pub faults: FaultPlanSpec,
    /// Medium-access policy beneath the multicast protocols. The default (the legacy
    /// uniform random jitter with stats reporting off) reproduces pre-MAC reports byte
    /// for byte; CSMA and self-stabilizing TDMA attach a `MacStats` block.
    pub mac: MacConfig,
    /// Event-loop engine: the default sequential loop reproduces earlier builds byte
    /// for byte; [`EngineConfig::sharded`] runs the region-parallel engine, whose
    /// reports are invariant in the shard count.
    pub engine: EngineConfig,
    /// Adaptive beacon suppression ("silent stabilization") for the self-stabilizing
    /// tree protocols. [`SilenceConfig::off`] (the default) keeps the classic cadence
    /// and wire format byte for byte; enabling it attaches a `SilenceStats` block
    /// splitting control bytes into steady-state and recovery traffic per session.
    pub silence: SilenceConfig,
    /// Report accumulation: exact tracking ([`MetricsConfig::exact`], the default,
    /// byte-identical to earlier builds) or memory-bounded streaming sketches whose
    /// footprint is set by fixed budgets, not by event count — the mode for
    /// week-long, large-n lifetime runs.
    pub metrics: MetricsConfig,
    /// Energy-harvesting node model. [`HarvestConfig::off`] (the default) keeps
    /// battery depletion permanent; enabling it gives each node a seeded harvest rate
    /// and a harvest-until-threshold wake, turning depletion into power cycling
    /// (on either engine — sharded runs stay byte-identical to sequential).
    pub harvest: HarvestConfig,
    /// Master seed; repetitions derive child seeds from it.
    pub seed: u64,
}

impl Scenario {
    /// The paper's simulation model with a harness-friendly duration (180 s instead of
    /// 1800 s). Multiply `duration_s` by 10 to match the paper exactly.
    pub fn paper_default() -> Self {
        Scenario {
            n_nodes: 50,
            area_side_m: 750.0,
            max_speed_mps: 5.0,
            min_speed_mps: 0.1,
            pause_secs: 0.0,
            group_size: 20,
            n_groups: 1,
            member_churn_rate: 0.0,
            beacon_interval_s: 2.0,
            duration_s: 180.0,
            warmup_s: 10.0,
            data_rate_bps: 64_000.0,
            packet_size_bytes: 512,
            radio: RadioConfig::default(),
            battery_capacity_j: f64::INFINITY,
            lifecycle: LifecycleConfig::off(),
            mobility: MobilityKind::RandomWaypoint,
            medium: MediumConfig::default(),
            faults: FaultPlanSpec::none(),
            mac: MacConfig::default(),
            engine: EngineConfig::default(),
            silence: SilenceConfig::off(),
            metrics: MetricsConfig::default(),
            harvest: HarvestConfig::off(),
            seed: 0x55_5357,
        }
    }

    /// The same scenario under a different mobility model.
    pub fn with_mobility(mut self, mobility: MobilityKind) -> Self {
        self.mobility = mobility;
        self
    }

    /// The same scenario under a different radio medium configuration.
    pub fn with_medium(mut self, medium: MediumConfig) -> Self {
        self.medium = medium;
        self
    }

    /// The same scenario under a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlanSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The same scenario under a different medium-access policy.
    pub fn with_mac(mut self, mac: MacConfig) -> Self {
        self.mac = mac;
        self
    }

    /// The same scenario on the sharded engine with `shards` worker threads.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.engine = EngineConfig { shards: shards.max(1), ..self.engine };
        self
    }

    /// The same scenario under an adaptive beacon-suppression policy.
    pub fn with_silence(mut self, silence: SilenceConfig) -> Self {
        self.silence = silence;
        self
    }

    /// The same scenario under a different report-accumulation mode.
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// The same scenario under an energy-harvesting node model.
    pub fn with_harvest(mut self, harvest: HarvestConfig) -> Self {
        self.harvest = harvest;
        self
    }

    /// The same scenario with `n` concurrent multicast sessions (clamped to ≥ 1).
    pub fn with_groups(mut self, n: usize) -> Self {
        self.n_groups = n.max(1);
        self
    }

    /// The same scenario with membership churn at `rate` join/leave events per second
    /// per session (clamped to ≥ 0).
    pub fn with_churn_rate(mut self, rate: f64) -> Self {
        self.member_churn_rate = rate.max(0.0);
        self
    }

    /// The same scenario with every node starting on a `capacity_j`-joule battery.
    pub fn with_battery_capacity(mut self, capacity_j: f64) -> Self {
        self.battery_capacity_j = capacity_j.max(0.0);
        self
    }

    /// The same scenario under a radio duty-cycle schedule: awake for `awake_fraction`
    /// of every `period_s` seconds (seeded per-node phases; sleeping radios miss
    /// deliveries).
    pub fn with_duty_cycle(mut self, period_s: f64, awake_fraction: f64) -> Self {
        self.lifecycle =
            self.lifecycle.with_duty_cycle(SimDuration::from_secs_f64(period_s), awake_fraction);
        self
    }

    /// The same scenario with continuous idle-listen / sleep drain, watts.
    pub fn with_idle_power(mut self, idle_listen_w: f64, sleep_w: f64) -> Self {
        self.lifecycle = self.lifecycle.with_idle_power(idle_listen_w, sleep_w);
        self
    }

    /// The same scenario with distance-based TX power control switched on or off
    /// (transmissions priced by their farthest actual receiver instead of the
    /// requested range).
    pub fn with_tx_power_control(mut self, enabled: bool) -> Self {
        self.lifecycle = self.lifecycle.with_tx_power_control(enabled);
        self
    }

    /// True when the scenario has several sessions or churns memberships — the runs
    /// whose reports carry per-group blocks and a legitimacy probe.
    pub fn has_group_dynamics(&self) -> bool {
        self.n_groups > 1 || self.member_churn_rate > 0.0
    }

    /// A small, fast scenario for unit/integration tests: fewer nodes, shorter run.
    pub fn quick_test() -> Self {
        Scenario { n_nodes: 25, duration_s: 60.0, group_size: 10, ..Self::paper_default() }
    }

    /// Number of group members excluding the source.
    pub fn receiver_count(&self) -> usize {
        self.group_size.saturating_sub(1).min(self.n_nodes.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_figure_legends() {
        assert_eq!(ProtocolKind::SsSpst(MetricKind::EnergyAware).name(), "SS-SPST-E");
        assert_eq!(ProtocolKind::SsSpst(MetricKind::Bottleneck).name(), "SS-MST");
        assert_eq!(ProtocolKind::Odmrp.name(), "ODMRP");
        assert_eq!(ProtocolKind::Maodv.name(), "MAODV");
        let names: Vec<_> = ProtocolKind::paper_four().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["MAODV", "SS-SPST", "SS-SPST-E", "ODMRP"]);
        assert_eq!(ProtocolKind::ss_variants().len(), 4);
        assert_eq!(ProtocolKind::beacon_pair().len(), 2);
    }

    #[test]
    fn paper_defaults_match_section6() {
        let s = Scenario::paper_default();
        assert_eq!(s.n_nodes, 50);
        assert_eq!(s.area_side_m, 750.0);
        assert_eq!(s.data_rate_bps, 64_000.0);
        assert_eq!(s.beacon_interval_s, 2.0);
        assert!(s.min_speed_mps > 0.0, "Yoon/Noble fix");
        assert_eq!(s.receiver_count(), 19);
    }

    #[test]
    fn medium_defaults_to_exact_grid_and_is_overridable() {
        use ssmcast_dessim::SimDuration;
        use ssmcast_manet::NeighborQuery;
        let s = Scenario::paper_default();
        assert_eq!(s.medium, MediumConfig::default());
        assert!(s.medium.position_epoch.is_zero(), "exact physics by default");
        assert_eq!(s.medium.neighbor_query, NeighborQuery::Grid);
        let tuned =
            s.with_medium(MediumConfig::brute_force().with_epoch(SimDuration::from_millis(100)));
        assert_eq!(tuned.medium.neighbor_query, NeighborQuery::BruteForce);
        assert_eq!(tuned.medium.position_epoch, SimDuration::from_millis(100));
    }

    #[test]
    fn mobility_defaults_to_the_papers_model() {
        assert_eq!(Scenario::paper_default().mobility, MobilityKind::RandomWaypoint);
        let s = Scenario::paper_default().with_mobility(MobilityKind::GaussMarkov);
        assert_eq!(s.mobility, MobilityKind::GaussMarkov);
        assert_eq!(MobilityKind::ALL.len(), 3);
        assert_eq!(MobilityKind::StaticGrid.name(), "static-grid");
    }

    #[test]
    fn group_and_churn_knobs_default_off_and_compose() {
        let s = Scenario::paper_default();
        assert_eq!(s.n_groups, 1);
        assert_eq!(s.member_churn_rate, 0.0);
        assert!(!s.has_group_dynamics());
        let multi = s.with_groups(3).with_churn_rate(0.5);
        assert_eq!(multi.n_groups, 3);
        assert_eq!(multi.member_churn_rate, 0.5);
        assert!(multi.has_group_dynamics());
        assert!(s.with_churn_rate(0.1).has_group_dynamics(), "churn alone counts");
        assert_eq!(s.with_groups(0).n_groups, 1, "clamped to at least one session");
        assert_eq!(s.with_churn_rate(-2.0).member_churn_rate, 0.0);
    }

    #[test]
    fn lifecycle_knobs_default_off_and_compose() {
        let s = Scenario::paper_default();
        assert_eq!(s.lifecycle, LifecycleConfig::off());
        assert!(s.battery_capacity_j.is_infinite());
        let tuned = s
            .with_battery_capacity(25.0)
            .with_duty_cycle(0.5, 0.6)
            .with_idle_power(1e-3, 1e-5)
            .with_tx_power_control(true);
        assert_eq!(tuned.battery_capacity_j, 25.0);
        assert!(tuned.lifecycle.duty_cycle.is_on());
        assert_eq!(tuned.lifecycle.duty_cycle.awake_fraction, 0.6);
        assert!(tuned.lifecycle.has_continuous_drain());
        assert!(tuned.lifecycle.tx_power_control);
        assert_eq!(s.with_battery_capacity(-3.0).battery_capacity_j, 0.0, "clamped");
    }

    #[test]
    fn mac_defaults_to_the_legacy_jitter_and_is_overridable() {
        use ssmcast_manet::MacKind;
        let s = Scenario::paper_default();
        assert_eq!(s.mac, MacConfig::default());
        assert_eq!(s.mac.kind, MacKind::RandomJitter);
        assert!(!s.mac.reports_stats(), "default runs stay byte-identical to pre-MAC reports");
        let tuned = s.with_mac(MacConfig::ss_tdma());
        assert_eq!(tuned.mac.kind, MacKind::SsTdma);
        assert!(tuned.mac.reports_stats());
    }

    #[test]
    fn silence_defaults_off_and_is_overridable() {
        let s = Scenario::paper_default();
        assert_eq!(s.silence, SilenceConfig::off());
        assert!(!s.silence.enabled, "default runs keep the classic cadence byte for byte");
        let tuned = s.with_silence(SilenceConfig::on().with_max_interval_factor(16.0));
        assert!(tuned.silence.enabled);
        assert_eq!(tuned.silence.max_interval_factor, 16.0);
    }

    #[test]
    fn metrics_and_harvest_default_off_and_are_overridable() {
        let s = Scenario::paper_default();
        assert_eq!(s.metrics, MetricsConfig::exact(), "exact reports by default");
        assert!(!s.metrics.is_streaming());
        assert_eq!(s.harvest, HarvestConfig::off());
        assert!(!s.harvest.enabled, "depletion stays permanent by default");
        let tuned = s
            .with_metrics(MetricsConfig::streaming())
            .with_harvest(HarvestConfig::on(0.01, 0.05, 0.25));
        assert!(tuned.metrics.is_streaming());
        assert!(tuned.harvest.enabled);
        assert_eq!(tuned.harvest.wake_fraction, 0.25);
    }

    #[test]
    fn receiver_count_is_clamped() {
        let mut s = Scenario::quick_test();
        s.group_size = 100;
        assert_eq!(s.receiver_count(), s.n_nodes - 1);
        s.group_size = 0;
        assert_eq!(s.receiver_count(), 0);
    }
}
