//! Figures 12–16: SS-SPST and SS-SPST-E against MAODV and ODMRP — group-size scalability,
//! control overhead, delivery ratio under mobility, delay and energy per packet.
//!
//! Demonstrates streaming sinks: while each figure runs, per-cell progress goes to stderr
//! and raw repetition rows stream into an incremental CSV (`<figNN>_cells.csv`), so an
//! interrupted run still leaves loadable partial results. The per-figure summary CSV/JSON
//! is written as before once the figure completes.
//!
//! Run with `cargo run --release --example protocol_comparison`. This is the largest
//! example; lower `SSMCAST_SCALE` / `SSMCAST_REPS` for a faster pass.

use ssmcast::scenario::{
    figure_to_text, run_figure_with_sink, write_figure_files, CsvStreamSink, FigureId,
    ProgressSink, TeeSink,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.4, 1);
    let out_dir = std::env::var("SSMCAST_OUT").unwrap_or_else(|_| "target/figures".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for id in [FigureId::Fig12, FigureId::Fig13, FigureId::Fig14, FigureId::Fig15, FigureId::Fig16]
    {
        let mut progress = ProgressSink::stderr();
        let cell_csv_path = Path::new(&out_dir).join(format!("{}_cells.csv", id.short_name()));
        let cell_csv = File::create(&cell_csv_path).expect("create streaming CSV");
        let mut csv = CsvStreamSink::new(BufWriter::new(cell_csv));
        let result = {
            let mut tee = TeeSink::new(vec![&mut progress, &mut csv]);
            run_figure_with_sink(id, scale, reps, &mut tee)
        };
        println!("{}", figure_to_text(&result));
        if let Err(e) = write_figure_files(&result, Path::new(&out_dir)) {
            eprintln!("could not write CSV/JSON for {}: {e}", result.spec.id.short_name());
        }
    }
    println!("summary CSV/JSON series and streamed per-cell CSVs written to {out_dir}/");
}
