//! Figures 10 and 11: the beacon-interval trade-off. Short intervals detect faults faster
//! (better delivery ratio) but cost more control energy; the paper finds the sweet spot
//! around 2 s. Cell-by-cell progress streams to stderr while the sweep runs.
//!
//! Run with `cargo run --release --example beacon_interval`.

use ssmcast::scenario::{figure_to_text, run_figure_with_sink, FigureId, ProgressSink};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.5, 2);
    for id in [FigureId::Fig10, FigureId::Fig11] {
        let mut progress = ProgressSink::stderr();
        let result = run_figure_with_sink(id, scale, reps, &mut progress);
        println!("{}", figure_to_text(&result));
    }
}
