//! The MAC-layer workload: offered load × medium-access policy. For each of the three
//! channel-access disciplines — the legacy blind jitter, carrier-sense CSMA with
//! exponential backoff, and Leone & Schiller-style self-stabilizing TDMA — sweep the
//! CBR source rate and chart how collision rate, delivery ratio, access delay and
//! (for TDMA) slot-convergence time respond. The same protocol stack runs above all
//! three, so every difference is the MAC's doing.
//!
//! Also prints the `FigMac` preset (collision rate per policy for the paper's four
//! protocols at doubled load).
//!
//! Run with `cargo run --release --example mac_sweep`. `SSMCAST_SCALE` / `SSMCAST_REPS`
//! work as in the other examples (see EXPERIMENTS.md).

use ssmcast::core::MetricKind;
use ssmcast::scenario::{
    base_scenario_for, figure_to_text, run_figure_with_sink, Experiment, FigureId, MacConfig,
    ProgressSink, ProtocolKind, Scenario, SweptParameter,
};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.3, 1);

    // Part 1 — offered load × MAC policy, one protocol above all three. The x axis is
    // the source rate in kbit/s; every policy faces the identical seeded world.
    let loads = [32.0, 64.0, 128.0, 256.0];
    let policies: [(&str, MacConfig); 3] = [
        ("random-jitter", MacConfig::default().with_stats()),
        ("csma", MacConfig::csma()),
        ("ss-tdma", MacConfig::ss_tdma()),
    ];
    let mut base = base_scenario_for(&FigureId::FigMac.spec());
    base.duration_s = (Scenario::paper_default().duration_s * scale).max(30.0);
    println!("# Offered load sweep (SS-SPST, {} s per run, {} rep(s))", base.duration_s, reps);
    println!(
        "{:>14} {:>10} {:>12} {:>8} {:>12} {:>10} {:>12}",
        "policy", "load kbps", "collisions", "pdr", "drop ratio", "delay ms", "converged s"
    );
    for (label, mac) in policies {
        let cells = Experiment::new(base.with_mac(mac))
            .protocol_kinds(&[ProtocolKind::SsSpst(MetricKind::Hop)])
            .sweep(SweptParameter::TrafficLoad, loads)
            .reps(reps)
            .run();
        for cell in &cells {
            let Some(report) = cell.reports.first() else { continue };
            let Some(m) = &report.mac else { continue };
            let converged =
                m.slot_last_redraw_s.map(|s| format!("{s:.1}")).unwrap_or_else(|| "-".to_string());
            println!(
                "{:>14} {:>10} {:>12.4} {:>8.3} {:>12.4} {:>10.2} {:>12}",
                label,
                cell.x,
                m.collision_rate,
                report.pdr,
                m.drop_ratio(),
                m.mean_access_delay_ms,
                converged,
            );
        }
    }

    // Part 2 — the FigMac preset: collision rate per policy for the paper's four
    // protocols, streamed with progress lines like the other figure examples.
    let mut progress = ProgressSink::stderr();
    let result = run_figure_with_sink(FigureId::FigMac, scale, reps, &mut progress);
    println!("\n{}", figure_to_text(&result));
}
