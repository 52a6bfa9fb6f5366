//! Sweep result types: [`SweepCell`], [`Metric`] and [`to_series`]. Sweeps themselves
//! run through [`crate::Experiment`].

use serde::{Deserialize, Serialize};
use ssmcast_manet::SimReport;
use ssmcast_metrics::Series;

/// The metric plotted on a figure's y axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Metric {
    /// Packet delivery ratio.
    Pdr,
    /// Unavailability ratio.
    Unavailability,
    /// Energy per delivered packet, millijoules.
    EnergyPerPacketMj,
    /// Energy per delivered *byte*, microjoules — the payload-normalised twin of
    /// [`Metric::EnergyPerPacketMj`], comparable across packet-size sweeps. Derived
    /// from existing report fields (total energy, delivered count, mean transmitted
    /// data packet size), so the report schema is unchanged.
    EnergyPerByteUj,
    /// Control bytes per delivered data byte.
    ControlOverhead,
    /// Average end-to-end delay, milliseconds.
    DelayMs,
    /// Mean recovery time after an injected fault episode, seconds. Episodes still
    /// unrecovered at the end of the run contribute their observed-open duration
    /// (run end − episode start) — a censored lower bound on their true recovery time —
    /// so a protocol that never recovers charts as slow, not as instantaneous. 0 only
    /// for fault-free runs.
    MeanRecoveryS,
    /// Fraction of fault episodes left unrecovered at the end of the run (1.0 when a
    /// protocol never recovers; 0 for fault-free runs).
    UnrecoveredRatio,
    /// Time until the first node's battery depleted, seconds — the network-lifetime
    /// headline number (higher is better). Runs in which no node died are censored at
    /// the run duration, so a protocol that kills nobody scores the full run length;
    /// unlimited-battery runs (no lifetime block) report the run duration too.
    TimeToFirstDeathS,
    /// Fraction of receptions lost to channel collisions, from the report's `MacStats`
    /// block. 0 for runs whose MAC policy reports no stats (the byte-identical default).
    CollisionRate,
    /// Control bytes-on-air spent while the session's legitimacy predicate held, from
    /// the report's `SilenceStats` block. Runs without the block (suppression off)
    /// report their *total* control bytes — for an always-on protocol every control
    /// byte is steady-state spend, so the two axes are directly comparable.
    SteadyControlBytes,
}

impl Metric {
    /// Extract the metric from one run report.
    pub fn extract(self, report: &SimReport) -> f64 {
        match self {
            Metric::Pdr => report.pdr,
            Metric::Unavailability => report.unavailability_ratio,
            Metric::EnergyPerPacketMj => report.energy_per_delivered_mj,
            Metric::EnergyPerByteUj => ssmcast_metrics::energy_per_delivered_byte_uj(
                report.total_energy_j,
                report.delivered,
                report.data_bytes_tx,
                report.data_packets_tx,
            ),
            Metric::ControlOverhead => report.control_bytes_per_data_byte,
            Metric::DelayMs => report.avg_delay_ms,
            Metric::MeanRecoveryS => report.convergence.as_ref().map_or(0.0, |c| {
                let episodes = c.recovered + c.unrecovered;
                if episodes == 0 {
                    return 0.0;
                }
                // Unrecovered episodes are censored at their observed-open duration — a
                // lower bound on their true recovery time that keeps never-recovering
                // protocols from charting as instantly convergent.
                (c.mean_recovery_s * c.recovered as f64 + c.unrecovered_open_s) / episodes as f64
            }),
            Metric::UnrecoveredRatio => report.convergence.as_ref().map_or(0.0, |c| {
                let episodes = c.recovered + c.unrecovered;
                if episodes == 0 {
                    0.0
                } else {
                    c.unrecovered as f64 / episodes as f64
                }
            }),
            Metric::TimeToFirstDeathS => report
                .lifetime
                .as_ref()
                .map_or(report.duration_s, |l| l.time_to_first_death_s(report.duration_s)),
            Metric::CollisionRate => report.mac.as_ref().map_or(0.0, |m| m.collision_rate),
            Metric::SteadyControlBytes => report
                .silence
                .as_ref()
                .map_or(report.control_bytes as f64, |s| s.steady_control_bytes as f64),
        }
    }

    /// Axis label used in tables and CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Pdr => "Packet Delivery Ratio",
            Metric::Unavailability => "Unavailability Ratio",
            Metric::EnergyPerPacketMj => "Energy per Packet Delivered (mJ)",
            Metric::EnergyPerByteUj => "Energy per Byte Delivered (uJ)",
            Metric::ControlOverhead => "Control Bytes per Data Byte Delivered",
            Metric::DelayMs => "Average Delay (ms)",
            Metric::MeanRecoveryS => "Mean Recovery Time after Fault (s)",
            Metric::UnrecoveredRatio => "Unrecovered Fault Episodes (ratio)",
            Metric::TimeToFirstDeathS => "Time to First Node Death (s)",
            Metric::CollisionRate => "Collision Rate (collided / receptions)",
            Metric::SteadyControlBytes => "Steady-State Control Bytes on Air",
        }
    }
}

/// One cell of a sweep: a swept value, a protocol, and the reports of every repetition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepCell {
    /// Swept parameter value.
    pub x: f64,
    /// Protocol that produced the reports.
    pub protocol: String,
    /// One report per repetition.
    pub reports: Vec<SimReport>,
}

/// Summarise sweep cells into one [`Series`] per protocol for the given metric.
pub fn to_series(cells: &[SweepCell], metric: Metric) -> Vec<Series> {
    let mut labels: Vec<String> = Vec::new();
    for c in cells {
        if !labels.contains(&c.protocol) {
            labels.push(c.protocol.clone());
        }
    }
    labels
        .into_iter()
        .map(|label| {
            let mut series = Series::new(label.clone());
            for c in cells.iter().filter(|c| c.protocol == label) {
                let samples: Vec<f64> = c.reports.iter().map(|r| metric.extract(r)).collect();
                series.push_samples(c.x, &samples);
            }
            series
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_protocol;
    use crate::scenario::{ProtocolKind, Scenario};
    use crate::Experiment;
    use ssmcast_core::MetricKind;

    #[test]
    fn metric_extraction_reads_the_right_field() {
        let mut s = Scenario::quick_test();
        s.duration_s = 25.0;
        s.n_nodes = 15;
        s.group_size = 6;
        let report = run_protocol(&s, ProtocolKind::Flooding.to_protocol().as_ref());
        assert_eq!(Metric::Pdr.extract(&report), report.pdr);
        assert_eq!(Metric::DelayMs.extract(&report), report.avg_delay_ms);
        assert_eq!(Metric::EnergyPerPacketMj.extract(&report), report.energy_per_delivered_mj);
        // Per-byte energy is the per-packet figure divided by the mean data packet
        // size (mJ → µJ is ×1000, bytes in the denominator).
        let mean_bytes = report.data_bytes_tx as f64 / report.data_packets_tx as f64;
        let per_byte = Metric::EnergyPerByteUj.extract(&report);
        assert!(per_byte > 0.0);
        assert!((per_byte - report.energy_per_delivered_mj * 1000.0 / mean_bytes).abs() < 1e-9);
        assert!(!Metric::ControlOverhead.label().is_empty());
        // No MacStats block (default policy) reads as a zero collision rate …
        assert!(report.mac.is_none());
        assert_eq!(Metric::CollisionRate.extract(&report), 0.0);
        // … while a stats-reporting policy exposes the channel's ratio.
        let noisy = run_protocol(
            &s.with_mac(ssmcast_manet::MacConfig::default().with_stats()),
            ProtocolKind::Flooding.to_protocol().as_ref(),
        );
        let mac = noisy.mac.as_ref().expect("stats-reporting MAC attaches a block");
        assert_eq!(Metric::CollisionRate.extract(&noisy), mac.collision_rate);
        assert!(!Metric::CollisionRate.label().is_empty());
    }

    #[test]
    fn sweep_produces_one_cell_per_x_and_protocol() {
        let mut base = Scenario::quick_test();
        base.duration_s = 20.0;
        base.n_nodes = 12;
        base.group_size = 5;
        let protocols = [ProtocolKind::SsSpst(MetricKind::Hop), ProtocolKind::Flooding];
        let cells = Experiment::new(base)
            .protocol_kinds(&protocols)
            .sweep_with([1.0, 10.0], |s, v| s.max_speed_mps = v)
            .reps(1)
            .run();
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.reports.len() == 1));
        let series = to_series(&cells, Metric::Pdr);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), 2);
    }
}
