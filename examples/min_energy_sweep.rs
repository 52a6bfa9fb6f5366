//! The minimum-energy-baseline figure: sweep the radio duty cycle on a static grid
//! and chart each protocol's delivery ratio. Flooding and SS-SPST-E are schedule-blind
//! — their frames land on sleeping radios and the delivery ratio collapses with the
//! awake fraction. MEM-Tree (a BIP minimum-energy broadcast tree) is just as blind but
//! cheaper per delivery; DCA-Forward runs the same tree *duty-cycle-aware*, batching
//! awake children into one priced broadcast and deferring the rest to their wake
//! windows, so its delivery ratio survives aggressive duty cycling.
//!
//! Run with `cargo run --release --example min_energy_sweep`. `SSMCAST_SCALE` /
//! `SSMCAST_REPS` work as in the other examples (see EXPERIMENTS.md).

use ssmcast::scenario::{figure_to_text, run_figure_with_sink, FigureId, Metric, ProgressSink};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.5, 2);
    let mut progress = ProgressSink::stderr();
    let result = run_figure_with_sink(FigureId::FigMinEnergy, scale, reps, &mut progress);
    println!("{}", figure_to_text(&result));

    // Companion view: what each delivered byte cost. The minimum-energy tree should
    // undercut flooding at every duty cycle; DCA-Forward pays a little extra range
    // margin back for the deliveries the blind protocols simply drop.
    let energy = ssmcast::scenario::sweep::to_series(&result.cells, Metric::EnergyPerByteUj);
    println!("# Energy per delivered byte (uJ) at each awake fraction");
    for series in &energy {
        println!("{}", series.to_text());
    }

    // And the raw traffic: how many data transmissions each protocol spent.
    println!("# Data packets transmitted (first repetition per cell)");
    for cell in &result.cells {
        if let Some(report) = cell.reports.first() {
            println!(
                "  {:<12} @ awake {:>4}: {} data tx, {} delivered",
                cell.protocol, cell.x, report.data_packets_tx, report.delivered,
            );
        }
    }
}
