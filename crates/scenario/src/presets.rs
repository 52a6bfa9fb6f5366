//! Per-figure experiment presets: one entry for every figure in the paper's evaluation
//! (Figures 7–16). Each preset knows its swept parameter, its x values, the protocols on
//! the plot and the y metric, so the bench harness and the examples can regenerate any
//! figure with one call.

use crate::experiment::Experiment;
use crate::runner::run_protocol;
use crate::scenario::{MobilityKind, ProtocolKind, Scenario};
use crate::sink::{MemorySink, RunSink, TeeSink};
use crate::sweep::{to_series, Metric, SweepCell};
use serde::{Deserialize, Serialize};
use ssmcast_core::MetricKind;
use ssmcast_manet::{MacConfig, SilenceConfig};
use ssmcast_metrics::Series;

/// Which parameter a figure sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SweptParameter {
    /// Maximum node velocity in m/s.
    Velocity,
    /// Beacon interval in seconds.
    BeaconInterval,
    /// Multicast group size (members including the source).
    GroupSize,
    /// Number of state-corruption bursts injected per run (fault sweep; x = 0 runs
    /// fault-free). Burst times and targets are seeded per repetition.
    FaultBursts,
    /// Number of concurrent multicast sessions sharing the medium (x is rounded and
    /// clamped to ≥ 1).
    GroupCount,
    /// Membership churn rate: expected join/leave events per second per session.
    MemberChurnRate,
    /// Per-node battery capacity in joules (clamped to ≥ 0; a drained battery is a
    /// permanent node death, so this sweeps network lifetime).
    BatteryCapacity,
    /// Radio duty cycle: the awake fraction of each schedule period, in `(0, 1]`
    /// (1.0 = always awake; sleeping radios miss deliveries).
    DutyCycle,
    /// Medium-access policy, encoded on the x axis: 0 = random jitter (stats on),
    /// 1 = CSMA, 2 = self-stabilizing TDMA (rounded and clamped).
    MacKind,
    /// Offered load: the CBR source rate in kbit/s per session (clamped to ≥ 0).
    TrafficLoad,
    /// Beacon-suppression backoff cap, as a multiple of the base beacon interval
    /// (clamped to ≥ 1; suppression is switched on with the default schedule). x = 1
    /// keeps the always-on cadence with phase accounting enabled — the baseline column.
    SuppressionBackoff,
}

impl SweptParameter {
    /// Apply a swept value to a scenario — the hook [`Experiment::sweep`] uses.
    pub fn apply(self, scenario: &mut Scenario, x: f64) {
        match self {
            SweptParameter::Velocity => scenario.max_speed_mps = x,
            SweptParameter::BeaconInterval => scenario.beacon_interval_s = x,
            SweptParameter::GroupSize => scenario.group_size = x.round() as usize,
            SweptParameter::FaultBursts => {
                scenario.faults.corruption_bursts = x.round().max(0.0) as u32;
                if scenario.faults.corruption_fraction <= 0.0 {
                    scenario.faults.corruption_fraction = 0.3;
                }
                // Inject inside the traffic window so recovery is observable, leaving
                // the last fifth of the run as headroom for the slowest protocols.
                // Short runs (duration close to the warm-up) clamp the window into the
                // run's first half rather than inverting it past the horizon.
                let start = (scenario.warmup_s + 5.0).min(scenario.duration_s * 0.5);
                scenario.faults.window_start_s = start;
                scenario.faults.window_end_s = (scenario.duration_s * 0.8).max(start);
            }
            SweptParameter::GroupCount => {
                scenario.n_groups = (x.round().max(1.0)) as usize;
            }
            SweptParameter::MemberChurnRate => {
                scenario.member_churn_rate = x.max(0.0);
            }
            SweptParameter::BatteryCapacity => {
                scenario.battery_capacity_j = x.max(0.0);
            }
            SweptParameter::DutyCycle => {
                let period = scenario.lifecycle.duty_cycle.period;
                scenario.lifecycle = scenario.lifecycle.with_duty_cycle(period, x.clamp(0.01, 1.0));
            }
            SweptParameter::MacKind => {
                // Stats on even for the jitter column, so the collision-rate metric
                // reads a MacStats block for all three policies.
                scenario.mac = match x.round().max(0.0) as u32 {
                    0 => MacConfig::default().with_stats(),
                    1 => MacConfig::csma(),
                    _ => MacConfig::ss_tdma(),
                };
            }
            SweptParameter::TrafficLoad => {
                scenario.data_rate_bps = (x * 1000.0).max(0.0);
            }
            SweptParameter::SuppressionBackoff => {
                scenario.silence = SilenceConfig::on().with_max_interval_factor(x);
            }
        }
    }

    /// Axis label for tables and CSV headers.
    pub fn x_label(self) -> &'static str {
        match self {
            SweptParameter::Velocity => "Velocity (m/s)",
            SweptParameter::BeaconInterval => "Beacon interval (s)",
            SweptParameter::GroupSize => "Group size",
            SweptParameter::FaultBursts => "Corruption bursts per run",
            SweptParameter::GroupCount => "Concurrent multicast sessions",
            SweptParameter::MemberChurnRate => "Membership churn (events/s per session)",
            SweptParameter::BatteryCapacity => "Battery capacity (J)",
            SweptParameter::DutyCycle => "Radio duty cycle (awake fraction)",
            SweptParameter::MacKind => "MAC policy (0 = jitter, 1 = CSMA, 2 = SS-TDMA)",
            SweptParameter::TrafficLoad => "Offered load (kbit/s per source)",
            SweptParameter::SuppressionBackoff => "Suppression backoff cap (x beacon interval)",
        }
    }
}

/// Identifier of a figure in the paper's evaluation section.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum FigureId {
    /// PDR vs velocity, SS-SPST variants.
    Fig7,
    /// Unavailability ratio vs velocity, SS-SPST variants.
    Fig8,
    /// Energy per packet vs velocity, SS-SPST variants.
    Fig9,
    /// PDR vs beacon interval, SS-SPST vs SS-SPST-E.
    Fig10,
    /// Energy per packet vs beacon interval, SS-SPST vs SS-SPST-E.
    Fig11,
    /// PDR vs group size, four protocols.
    Fig12,
    /// Control overhead vs group size, four protocols.
    Fig13,
    /// PDR vs velocity, four protocols.
    Fig14,
    /// Average delay vs group size, four protocols.
    Fig15,
    /// Energy per packet vs velocity, four protocols.
    Fig16,
    /// Convergence time vs corruption-burst count, SS-SPST variants + baselines. Not a
    /// figure of the paper — it measures the paper's *claim* (self-stabilization) the
    /// way the related self-stabilization literature does, as recovery time and
    /// communication-during-stabilization under a seeded fault schedule.
    FigFaults,
    /// PDR vs concurrent session count under membership churn, four protocols. Not a
    /// figure of the paper — it opens the multi-group workload dimension its
    /// single-group evaluation leaves out (cf. the multi-group settings of Han et al.'s
    /// all-to-all multicasting and Leone & Schiller's dynamic-network TDMA).
    FigGroups,
    /// Time-to-first-death vs battery capacity under idle drain and distance-based TX
    /// power control — the network-lifetime workload. Not a figure of the paper (its
    /// batteries never deplete); it charts the consequence its energy-per-packet
    /// curves predict, the way the duty-cycle-aware minimum-energy multicast
    /// literature does: an energy-aware tree keeps the first node alive longest, blind
    /// flooding kills it first.
    FigLifetime,
    /// Collision rate vs MAC policy at elevated offered load, four protocols. Not a
    /// figure of the paper (its medium is contention-free) — it prices the idealized
    /// broadcast assumption by swapping the channel-access layer beneath the same
    /// protocols: blind jitter vs carrier sensing vs Leone & Schiller-style
    /// self-stabilizing TDMA.
    FigMac,
    /// Steady-state control bytes-on-air vs suppression backoff cap, the three
    /// self-stabilizing tree protocols. Not a figure of the paper (its protocols
    /// beacon forever) — it measures the silent-stabilization claim of Devismes,
    /// Masuzawa & Tixeuil: once the legitimacy predicate holds, control traffic
    /// should collapse toward the heartbeat floor while recovery traffic is spared.
    FigSilence,
    /// Delivery ratio vs radio duty cycle: the minimum-energy baselines against
    /// flooding and SS-SPST-E. Not a figure of the paper (its radios never sleep) —
    /// it measures the claim of the duty-cycle-aware minimum-energy multicast
    /// literature (Han et al.): a forwarder that knows downstream wake schedules and
    /// defers into them (DCA-Forward) keeps delivering where schedule-blind
    /// transmissions are lost to sleeping radios.
    FigMinEnergy,
}

impl FigureId {
    /// All evaluation figures in order.
    pub const ALL: [FigureId; 16] = [
        FigureId::Fig7,
        FigureId::Fig8,
        FigureId::Fig9,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::Fig14,
        FigureId::Fig15,
        FigureId::Fig16,
        FigureId::FigFaults,
        FigureId::FigGroups,
        FigureId::FigLifetime,
        FigureId::FigMac,
        FigureId::FigSilence,
        FigureId::FigMinEnergy,
    ];

    /// The preset describing how to regenerate this figure.
    pub fn spec(self) -> FigureSpec {
        let velocity_xs = vec![1.0, 5.0, 10.0, 15.0, 20.0];
        let beacon_xs = vec![1.0, 2.0, 3.0, 4.0];
        let group_xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        match self {
            FigureId::Fig7 => FigureSpec {
                id: self,
                title: "Packet Delivery Ratio as a Function of Mobility",
                swept: SweptParameter::Velocity,
                xs: velocity_xs,
                protocols: ProtocolKind::ss_variants().to_vec(),
                metric: Metric::Pdr,
            },
            FigureId::Fig8 => FigureSpec {
                id: self,
                title: "Unavailability Ratio as a Function of Velocity",
                swept: SweptParameter::Velocity,
                xs: velocity_xs,
                protocols: ProtocolKind::ss_variants().to_vec(),
                metric: Metric::Unavailability,
            },
            FigureId::Fig9 => FigureSpec {
                id: self,
                title: "Energy Consumption per Packet Delivered",
                swept: SweptParameter::Velocity,
                xs: velocity_xs,
                protocols: ProtocolKind::ss_variants().to_vec(),
                metric: Metric::EnergyPerPacketMj,
            },
            FigureId::Fig10 => FigureSpec {
                id: self,
                title: "Packet Delivery Ratio as a Function of Beacon Interval",
                swept: SweptParameter::BeaconInterval,
                xs: beacon_xs,
                protocols: ProtocolKind::beacon_pair().to_vec(),
                metric: Metric::Pdr,
            },
            FigureId::Fig11 => FigureSpec {
                id: self,
                title: "Energy Consumption per Packet Delivered as a Function of Beacon Interval",
                swept: SweptParameter::BeaconInterval,
                xs: beacon_xs,
                protocols: ProtocolKind::beacon_pair().to_vec(),
                metric: Metric::EnergyPerPacketMj,
            },
            FigureId::Fig12 => FigureSpec {
                id: self,
                title: "Packet Delivery Ratio as a Function of Multicast Group Size",
                swept: SweptParameter::GroupSize,
                xs: group_xs,
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::Pdr,
            },
            FigureId::Fig13 => FigureSpec {
                id: self,
                title: "Control Overhead as a Function of Multicast Group Size",
                swept: SweptParameter::GroupSize,
                xs: group_xs,
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::ControlOverhead,
            },
            FigureId::Fig14 => FigureSpec {
                id: self,
                title: "Packet Delivery Ratio as a Function of Velocity",
                swept: SweptParameter::Velocity,
                xs: velocity_xs,
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::Pdr,
            },
            FigureId::Fig15 => FigureSpec {
                id: self,
                title: "Average Delay per Node",
                swept: SweptParameter::GroupSize,
                xs: group_xs,
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::DelayMs,
            },
            FigureId::Fig16 => FigureSpec {
                id: self,
                title: "Energy Consumed per Packet Delivered as a Function of Velocity",
                swept: SweptParameter::Velocity,
                xs: velocity_xs,
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::EnergyPerPacketMj,
            },
            FigureId::FigFaults => FigureSpec {
                id: self,
                title: "Convergence Time as a Function of Injected Corruption Bursts",
                swept: SweptParameter::FaultBursts,
                xs: vec![1.0, 2.0, 4.0, 8.0],
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::MeanRecoveryS,
            },
            FigureId::FigGroups => FigureSpec {
                id: self,
                title: "Packet Delivery Ratio as a Function of Concurrent Sessions",
                swept: SweptParameter::GroupCount,
                xs: vec![1.0, 2.0, 3.0, 4.0],
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::Pdr,
            },
            FigureId::FigLifetime => FigureSpec {
                id: self,
                title: "Time to First Node Death as a Function of Battery Capacity",
                swept: SweptParameter::BatteryCapacity,
                xs: vec![5.0, 10.0, 20.0, 40.0],
                protocols: vec![
                    ProtocolKind::Flooding,
                    ProtocolKind::SsSpst(MetricKind::Hop),
                    ProtocolKind::SsSpst(MetricKind::EnergyAware),
                    ProtocolKind::MemTree,
                    ProtocolKind::DcaForward,
                ],
                metric: Metric::TimeToFirstDeathS,
            },
            FigureId::FigMac => FigureSpec {
                id: self,
                title: "Collision Rate as a Function of MAC Policy",
                swept: SweptParameter::MacKind,
                xs: vec![0.0, 1.0, 2.0],
                protocols: ProtocolKind::paper_four().to_vec(),
                metric: Metric::CollisionRate,
            },
            FigureId::FigSilence => FigureSpec {
                id: self,
                title: "Steady-State Control Bytes as a Function of Suppression Backoff Cap",
                swept: SweptParameter::SuppressionBackoff,
                xs: vec![1.0, 2.0, 4.0, 8.0, 16.0],
                protocols: vec![
                    ProtocolKind::SsSpst(MetricKind::Hop),
                    ProtocolKind::SsSpst(MetricKind::EnergyAware),
                    ProtocolKind::SsSpst(MetricKind::Bottleneck),
                ],
                metric: Metric::SteadyControlBytes,
            },
            FigureId::FigMinEnergy => FigureSpec {
                id: self,
                title: "Packet Delivery Ratio as a Function of Radio Duty Cycle",
                swept: SweptParameter::DutyCycle,
                xs: vec![0.1, 0.25, 0.5, 1.0],
                protocols: vec![
                    ProtocolKind::Flooding,
                    ProtocolKind::SsSpst(MetricKind::EnergyAware),
                    ProtocolKind::MemTree,
                    ProtocolKind::DcaForward,
                ],
                metric: Metric::Pdr,
            },
        }
    }

    /// Short name ("fig07", ...) for file names.
    pub fn short_name(self) -> &'static str {
        match self {
            FigureId::Fig7 => "fig07",
            FigureId::Fig8 => "fig08",
            FigureId::Fig9 => "fig09",
            FigureId::Fig10 => "fig10",
            FigureId::Fig11 => "fig11",
            FigureId::Fig12 => "fig12",
            FigureId::Fig13 => "fig13",
            FigureId::Fig14 => "fig14",
            FigureId::Fig15 => "fig15",
            FigureId::Fig16 => "fig16",
            FigureId::FigFaults => "fig_faults",
            FigureId::FigGroups => "fig_groups",
            FigureId::FigLifetime => "fig_lifetime",
            FigureId::FigMac => "fig_mac",
            FigureId::FigSilence => "fig_silence",
            FigureId::FigMinEnergy => "fig_min_energy",
        }
    }
}

/// Everything needed to regenerate one figure.
#[derive(Clone, Debug, Serialize)]
pub struct FigureSpec {
    /// Which figure this is.
    pub id: FigureId,
    /// The paper's figure title.
    pub title: &'static str,
    /// The swept parameter.
    pub swept: SweptParameter,
    /// The x values to sweep.
    pub xs: Vec<f64>,
    /// The protocols on the plot.
    pub protocols: Vec<ProtocolKind>,
    /// The y metric.
    pub metric: Metric,
}

/// Base scenario for a figure, applying the paper's fixed parameters for that figure
/// (e.g. velocity fixed at 5 m/s for the beacon-interval study, 1 m/s for the group-size
/// study).
pub fn base_scenario_for(spec: &FigureSpec) -> Scenario {
    let mut s = Scenario::paper_default();
    match spec.swept {
        SweptParameter::Velocity => {
            s.group_size = 20;
            s.beacon_interval_s = 2.0;
        }
        SweptParameter::BeaconInterval => {
            s.max_speed_mps = 5.0;
            s.group_size = 20;
        }
        SweptParameter::GroupSize => {
            // Figures 12/13/15 fix node speed at 1 m/s.
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
        }
        SweptParameter::FaultBursts => {
            // Slow mobility so recovery time measures stabilization, not tree churn.
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
            s.faults.corruption_fraction = 0.3;
        }
        SweptParameter::GroupCount => {
            // Slow mobility (as in the group-size study) with moderate churn, so the
            // sweep prices concurrent-session contention plus membership dynamics.
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
            s.member_churn_rate = 0.05;
        }
        SweptParameter::MemberChurnRate => {
            // Two sessions so churn interacts with cross-session contention.
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
            s.n_groups = 2;
        }
        SweptParameter::BatteryCapacity => {
            // The network-lifetime study: slow mobility (deaths should come from
            // energy discipline, not partition luck), distance-based TX power control
            // so short-link trees actually pay less per hop, a small idle-listen
            // current so a radio that merely stays on also spends its budget, and a
            // moderate battery (the sweep overrides it per column).
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
            s.battery_capacity_j = 10.0;
            s.lifecycle = s.lifecycle.with_tx_power_control(true).with_idle_power(2e-3, 1e-4);
        }
        SweptParameter::DutyCycle => {
            // The duty-cycle study (minimum-energy baselines): a static grid, as in
            // the duty-cycle-aware minimum-energy multicast literature — the
            // centralized BIP tree is built from the t = 0 snapshot and must not rot
            // under mobility while the sweep measures *scheduling*, not repair. TX
            // power control with duty-aware pricing on, so a deferring forwarder
            // prices each batch at its farthest awake receiver.
            s.mobility = MobilityKind::StaticGrid;
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
            s.lifecycle = s
                .lifecycle
                .with_tx_power_control(true)
                .with_idle_power(2e-3, 1e-4)
                .with_duty_aware_pricing(true);
        }
        SweptParameter::MacKind => {
            // Slow mobility (contention, not partition luck, should drive losses) and
            // double the paper's offered load so channel-access discipline is visible.
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
            s.data_rate_bps = 128_000.0;
        }
        SweptParameter::TrafficLoad => {
            // Per-column load with carrier sensing on, so a load sweep prices
            // contention rather than pure loss-draw luck.
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
            s.mac = MacConfig::csma();
        }
        SweptParameter::SuppressionBackoff => {
            // Static topology, fault-free: the steady-state byte split should price
            // the protocols' own beacon cadence, not mobility-induced repair traffic
            // (every neighbour change is legitimate evidence that snaps the backoff).
            s.mobility = MobilityKind::StaticGrid;
            s.max_speed_mps = 1.0;
            s.beacon_interval_s = 2.0;
        }
    }
    s
}

/// The raw result of regenerating one figure.
#[derive(Clone, Debug, Serialize)]
pub struct FigureResult {
    /// The preset that was run.
    pub spec: FigureSpec,
    /// The per-cell reports (kept for CSV / JSON export).
    pub cells: Vec<SweepCell>,
    /// One series per protocol, the figure's lines.
    pub series: Vec<Series>,
}

/// Regenerate one figure. `scale` shrinks the run length so the same code serves quick
/// smoke tests (`scale ≈ 0.2`), the bench harness (`scale ≈ 1`) and paper-fidelity runs
/// (`scale = 10`, i.e. 1800 simulated seconds). See `EXPERIMENTS.md` for the mapping.
pub fn run_figure(id: FigureId, scale: f64, reps: usize) -> FigureResult {
    let mut null = crate::sink::NullSink;
    run_figure_with_sink(id, scale, reps, &mut null)
}

/// Regenerate one figure under an explicit radio medium configuration (position-cache
/// epoch + neighbour-query mode). With the default [`MediumConfig`] this is identical to
/// [`run_figure`]; a coarse position epoch trades fidelity for throughput on large
/// sweeps.
pub fn run_figure_with_medium(
    id: FigureId,
    scale: f64,
    reps: usize,
    medium: ssmcast_manet::MediumConfig,
) -> FigureResult {
    let mut null = crate::sink::NullSink;
    run_figure_inner(id, scale, reps, Some(medium), &mut null)
}

/// Regenerate one figure while streaming every completed cell through `sink` (progress
/// lines, incremental CSV/JSON, ...). The figure's own summary still needs the full grid,
/// which is collected alongside the stream.
pub fn run_figure_with_sink(
    id: FigureId,
    scale: f64,
    reps: usize,
    sink: &mut dyn RunSink,
) -> FigureResult {
    run_figure_inner(id, scale, reps, None, sink)
}

fn run_figure_inner(
    id: FigureId,
    scale: f64,
    reps: usize,
    medium: Option<ssmcast_manet::MediumConfig>,
    sink: &mut dyn RunSink,
) -> FigureResult {
    let spec = id.spec();
    let mut base = base_scenario_for(&spec);
    base.duration_s = (base.duration_s * scale).max(30.0);
    if let Some(medium) = medium {
        base.medium = medium;
    }
    let mut memory = MemorySink::new();
    {
        let mut tee = TeeSink::new(vec![&mut memory, sink]);
        Experiment::new(base)
            .protocol_kinds(&spec.protocols)
            .sweep(spec.swept, spec.xs.clone())
            .reps(reps.max(1))
            .run_with_sink(&mut tee);
    }
    let cells = memory.into_cells();
    let series = to_series(&cells, spec.metric);
    FigureResult { spec, cells, series }
}

/// Run a single cell of a figure (used by the Criterion timing benchmarks).
pub fn run_single_cell(
    id: FigureId,
    x: f64,
    protocol: ProtocolKind,
    scale: f64,
) -> ssmcast_manet::SimReport {
    let spec = id.spec();
    let mut base = base_scenario_for(&spec);
    base.duration_s = (base.duration_s * scale).max(30.0);
    spec.swept.apply(&mut base, x);
    run_protocol(&base, protocol.to_protocol().as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_id_all_lists_every_variant_exactly_once() {
        // The match is the guard: adding a FigureId variant without extending it is a
        // compile error, and N_VARIANTS then forces ALL to grow with it.
        const N_VARIANTS: usize = 16;
        fn ordinal(id: FigureId) -> usize {
            match id {
                FigureId::Fig7 => 0,
                FigureId::Fig8 => 1,
                FigureId::Fig9 => 2,
                FigureId::Fig10 => 3,
                FigureId::Fig11 => 4,
                FigureId::Fig12 => 5,
                FigureId::Fig13 => 6,
                FigureId::Fig14 => 7,
                FigureId::Fig15 => 8,
                FigureId::Fig16 => 9,
                FigureId::FigFaults => 10,
                FigureId::FigGroups => 11,
                FigureId::FigLifetime => 12,
                FigureId::FigMac => 13,
                FigureId::FigSilence => 14,
                FigureId::FigMinEnergy => 15,
            }
        }
        assert_eq!(FigureId::ALL.len(), N_VARIANTS, "ALL drifted from the enum");
        let mut seen = [false; N_VARIANTS];
        for id in FigureId::ALL {
            let i = ordinal(id);
            assert!(!seen[i], "{id:?} listed twice in FigureId::ALL");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "FigureId::ALL misses a variant");
    }

    #[test]
    fn mac_preset_sweeps_the_three_policies_under_load() {
        use ssmcast_manet::MacKind;
        let spec = FigureId::FigMac.spec();
        assert_eq!(spec.swept, SweptParameter::MacKind);
        assert_eq!(spec.metric, Metric::CollisionRate);
        assert_eq!(spec.xs, vec![0.0, 1.0, 2.0]);
        let base = base_scenario_for(&spec);
        assert!(base.data_rate_bps > Scenario::paper_default().data_rate_bps, "elevated load");
        let mut s = base;
        SweptParameter::MacKind.apply(&mut s, 0.0);
        assert_eq!(s.mac.kind, MacKind::RandomJitter);
        assert!(s.mac.reports_stats(), "the jitter column must still report stats");
        SweptParameter::MacKind.apply(&mut s, 1.0);
        assert_eq!(s.mac.kind, MacKind::Csma);
        SweptParameter::MacKind.apply(&mut s, 2.0);
        assert_eq!(s.mac.kind, MacKind::SsTdma);
        SweptParameter::TrafficLoad.apply(&mut s, 256.0);
        assert_eq!(s.data_rate_bps, 256_000.0, "kbit/s on the axis, bit/s in the scenario");
        assert_eq!(FigureId::FigMac.short_name(), "fig_mac");
    }

    #[test]
    fn every_figure_has_a_complete_spec() {
        for id in FigureId::ALL {
            let spec = id.spec();
            assert!(!spec.xs.is_empty());
            assert!(spec.protocols.len() >= 2);
            assert!(!spec.title.is_empty());
            assert!(id.short_name().starts_with("fig"));
            let base = base_scenario_for(&spec);
            assert_eq!(base.n_nodes, 50);
        }
    }

    #[test]
    fn silence_preset_sweeps_the_backoff_cap_on_a_static_topology() {
        let spec = FigureId::FigSilence.spec();
        assert_eq!(spec.swept, SweptParameter::SuppressionBackoff);
        assert_eq!(spec.metric, Metric::SteadyControlBytes);
        assert_eq!(spec.xs, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(spec.protocols.len(), 3, "the three self-stabilizing tree protocols");
        assert!(spec.protocols.contains(&ProtocolKind::SsSpst(MetricKind::Bottleneck)));
        let base = base_scenario_for(&spec);
        assert_eq!(base.mobility, MobilityKind::StaticGrid);
        assert!(!base.silence.enabled, "the sweep itself switches suppression on per column");
        let mut s = base;
        SweptParameter::SuppressionBackoff.apply(&mut s, 16.0);
        assert!(s.silence.enabled);
        assert_eq!(s.silence.max_interval_factor, 16.0);
        SweptParameter::SuppressionBackoff.apply(&mut s, 0.25);
        assert_eq!(s.silence.max_interval_factor, 1.0, "cap clamps to the base cadence");
        assert_eq!(FigureId::FigSilence.short_name(), "fig_silence");
    }

    #[test]
    fn min_energy_preset_sweeps_duty_cycle_on_a_static_grid() {
        let spec = FigureId::FigMinEnergy.spec();
        assert_eq!(spec.swept, SweptParameter::DutyCycle);
        assert_eq!(spec.metric, Metric::Pdr);
        assert_eq!(spec.xs, vec![0.1, 0.25, 0.5, 1.0]);
        assert!(spec.protocols.contains(&ProtocolKind::MemTree));
        assert!(spec.protocols.contains(&ProtocolKind::DcaForward));
        assert!(spec.protocols.contains(&ProtocolKind::Flooding), "schedule-blind yardstick");
        let base = base_scenario_for(&spec);
        assert_eq!(base.mobility, MobilityKind::StaticGrid, "BIP trees must not rot");
        assert!(base.lifecycle.tx_power_control);
        assert!(base.lifecycle.duty_aware_pricing);
        let mut s = base;
        SweptParameter::DutyCycle.apply(&mut s, 0.25);
        assert!(s.lifecycle.duty_cycle.is_on());
        assert_eq!(FigureId::FigMinEnergy.short_name(), "fig_min_energy");
    }

    #[test]
    fn group_size_figures_fix_velocity_at_1mps() {
        let spec = FigureId::Fig12.spec();
        assert_eq!(base_scenario_for(&spec).max_speed_mps, 1.0);
        let spec = FigureId::Fig15.spec();
        assert_eq!(base_scenario_for(&spec).max_speed_mps, 1.0);
    }

    #[test]
    fn beacon_interval_figures_fix_velocity_at_5mps() {
        let spec = FigureId::Fig10.spec();
        assert_eq!(base_scenario_for(&spec).max_speed_mps, 5.0);
        assert_eq!(spec.protocols.len(), 2);
    }

    #[test]
    fn apply_sets_the_right_field() {
        let mut s = Scenario::paper_default();
        SweptParameter::Velocity.apply(&mut s, 15.0);
        assert_eq!(s.max_speed_mps, 15.0);
        SweptParameter::BeaconInterval.apply(&mut s, 3.0);
        assert_eq!(s.beacon_interval_s, 3.0);
        SweptParameter::GroupSize.apply(&mut s, 40.0);
        assert_eq!(s.group_size, 40);
        assert_eq!(SweptParameter::GroupSize.x_label(), "Group size");
        SweptParameter::BatteryCapacity.apply(&mut s, 12.5);
        assert_eq!(s.battery_capacity_j, 12.5);
        SweptParameter::DutyCycle.apply(&mut s, 0.4);
        assert_eq!(s.lifecycle.duty_cycle.awake_fraction, 0.4);
        assert!(s.lifecycle.duty_cycle.is_on());
        SweptParameter::DutyCycle.apply(&mut s, 7.0);
        assert_eq!(s.lifecycle.duty_cycle.awake_fraction, 1.0, "clamped into (0, 1]");
    }

    #[test]
    fn lifetime_preset_constrains_batteries_and_prices_tx_by_distance() {
        let spec = FigureId::FigLifetime.spec();
        assert_eq!(spec.swept, SweptParameter::BatteryCapacity);
        assert_eq!(spec.metric, Metric::TimeToFirstDeathS);
        assert_eq!(
            spec.protocols.len(),
            5,
            "flooding + hop tree + the three energy strategies (E, MEM-Tree, DCA-Forward)"
        );
        assert!(spec.protocols.contains(&ProtocolKind::MemTree));
        assert!(spec.protocols.contains(&ProtocolKind::DcaForward));
        let base = base_scenario_for(&spec);
        assert!(base.battery_capacity_j.is_finite());
        assert!(base.lifecycle.tx_power_control);
        assert!(base.lifecycle.has_continuous_drain());
        assert_eq!(FigureId::FigLifetime.short_name(), "fig_lifetime");
    }
}
