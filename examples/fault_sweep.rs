//! The fault-sweep figure: inject a growing number of seeded state-corruption bursts
//! into the paper's scenario and compare how fast each protocol re-establishes a
//! legitimate multicast tree (mean recovery time per fault episode). The SS-SPST
//! variants self-stabilize within a few beacon intervals; MAODV waits for its next
//! Group Hello; blind flooding never forms a legitimate tree at all (its cells report
//! zero recoveries — see the unrecovered counters in the streamed CSV columns).
//!
//! Run with `cargo run --release --example fault_sweep`. `SSMCAST_SCALE` / `SSMCAST_REPS`
//! work as in the other examples (see EXPERIMENTS.md).

use ssmcast::scenario::{figure_to_text, run_figure_with_sink, FigureId, ProgressSink};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.5, 2);
    let mut progress = ProgressSink::stderr();
    let result = run_figure_with_sink(FigureId::FigFaults, scale, reps, &mut progress);
    println!("{}", figure_to_text(&result));

    // Companion view: the fraction of fault episodes each protocol never recovered
    // from. A self-stabilizing protocol should sit at 0; a structure-free one at 1.
    let unrecovered = ssmcast::scenario::sweep::to_series(
        &result.cells,
        ssmcast::scenario::Metric::UnrecoveredRatio,
    );
    println!("# Unrecovered fault episodes (ratio)");
    for series in &unrecovered {
        println!("{}", series.to_text());
    }
}
