//! Figures 7, 8 and 9: sweep node velocity and compare the four SS-SPST variants on packet
//! delivery ratio, unavailability ratio and energy per delivered packet. Cell-by-cell
//! progress streams to stderr while the sweep runs.
//!
//! Run with `cargo run --release --example velocity_sweep` (set `SSMCAST_SCALE` to a value
//! around 10 for paper-length 1800 s runs; the default keeps the sweep to a few minutes).

use ssmcast::scenario::{figure_to_text, run_figure_with_sink, FigureId, ProgressSink};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.5, 2);
    for id in [FigureId::Fig7, FigureId::Fig8, FigureId::Fig9] {
        let mut progress = ProgressSink::stderr();
        let result = run_figure_with_sink(id, scale, reps, &mut progress);
        println!("{}", figure_to_text(&result));
    }
}
