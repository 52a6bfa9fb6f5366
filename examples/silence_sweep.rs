//! The silent-stabilization figure: sweep the beacon-suppression backoff cap on a
//! static, fault-free topology and chart the steady-state control bytes each
//! self-stabilizing tree protocol still spends once its legitimacy predicate holds.
//! At cap 1 suppression is accounting-only (the always-on baseline); raising the cap
//! lets quiet nodes back off toward the heartbeat floor, so the steady-state bytes
//! should collapse while the recovery split — printed alongside — stays protocol
//! repair traffic only.
//!
//! Run with `cargo run --release --example silence_sweep`. `SSMCAST_SCALE` /
//! `SSMCAST_REPS` work as in the other examples (see EXPERIMENTS.md).

use ssmcast::scenario::{figure_to_text, run_figure_with_sink, FigureId, ProgressSink};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.5, 2);
    let mut progress = ProgressSink::stderr();
    let result = run_figure_with_sink(FigureId::FigSilence, scale, reps, &mut progress);
    println!("{}", figure_to_text(&result));

    // Companion view: the phase split behind the headline metric. Steady bytes fall
    // with the cap; recovery bytes (tree construction after cold start) do not grow.
    println!("# Control-byte phase split (steady / recovery, averaged over reps)");
    for cell in &result.cells {
        let (mut steady, mut recovery, mut runs) = (0u64, 0u64, 0u64);
        for report in &cell.reports {
            if let Some(silence) = &report.silence {
                steady += silence.steady_control_bytes;
                recovery += silence.recovery_control_bytes;
                runs += 1;
            }
        }
        if let Some(per_run_steady) = steady.checked_div(runs) {
            println!(
                "cap {:>5.1}  {:<10}  steady {:>10}  recovery {:>10}",
                cell.x,
                cell.protocol,
                per_run_steady,
                recovery / runs.max(1)
            );
        }
    }
}
