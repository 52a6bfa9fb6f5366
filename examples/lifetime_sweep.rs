//! The network-lifetime figure: give every node a finite battery (plus a small
//! idle-listen current and distance-based TX power control) and sweep the capacity,
//! charting how long each protocol keeps its first node alive. Blind flooding burns the
//! fleet fastest; the energy-aware SS-SPST-E tree — short links priced by actual
//! receiver distance, less overhearing — keeps the first node alive longest, exactly
//! the consequence the paper's energy-per-packet curves predict.
//!
//! Run with `cargo run --release --example lifetime_sweep`. `SSMCAST_SCALE` /
//! `SSMCAST_REPS` work as in the other examples (see EXPERIMENTS.md).

use ssmcast::scenario::{figure_to_text, run_figure_with_sink, FigureId, Metric, ProgressSink};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.5, 2);
    let mut progress = ProgressSink::stderr();
    let result = run_figure_with_sink(FigureId::FigLifetime, scale, reps, &mut progress);
    println!("{}", figure_to_text(&result));

    // Companion view: the delivery ratio each capacity sustains — lifetime is only
    // worth having if the surviving network still serves its members.
    let pdr = ssmcast::scenario::sweep::to_series(&result.cells, Metric::Pdr);
    println!("# Packet delivery ratio at each battery capacity");
    for series in &pdr {
        println!("{}", series.to_text());
    }

    // And the terminal population: how many nodes each protocol kept alive.
    println!("# Battery-alive nodes at the end of the run (first repetition per cell)");
    for cell in &result.cells {
        if let Some(lifetime) = cell.reports.first().and_then(|r| r.lifetime.as_ref()) {
            println!(
                "  {:<10} @ {:>5} J: {} alive, first death {}",
                cell.protocol,
                cell.x,
                lifetime.alive_final,
                lifetime
                    .first_death_s
                    .map(|s| format!("at {s:.1} s"))
                    .unwrap_or_else(|| "never".into()),
            );
        }
    }
}
