//! The multi-group workload: sweep the number of concurrent multicast sessions sharing
//! one radio medium (each with a seeded membership-churn schedule) and compare how the
//! four headline protocols hold up. More sessions mean more contention and more
//! overhearing; churn means every session keeps absorbing joins and leaves while data
//! flows. The per-group blocks streamed into the CSV/JSONL output break every cell down
//! by session — including per-session legitimacy measured by the stabilization probe.
//!
//! Run with `cargo run --release --example group_sweep`. `SSMCAST_SCALE` / `SSMCAST_REPS`
//! work as in the other examples (see EXPERIMENTS.md).

use ssmcast::scenario::{figure_to_text, run_figure_with_sink, FigureId, ProgressSink};

fn main() {
    let (scale, reps) = ssmcast::scenario::scale_and_reps_from_env(0.3, 1);
    let mut progress = ProgressSink::stderr();
    let result = run_figure_with_sink(FigureId::FigGroups, scale, reps, &mut progress);
    println!("{}", figure_to_text(&result));

    // Companion view: the per-session breakdown of the largest cell — who paid what on
    // the shared medium. Energy is attributed per session and conserves the total.
    println!("# Per-session breakdown (x = max sessions, first repetition)");
    for cell in result.cells.iter().rev().take(result.spec.protocols.len()) {
        let Some(report) = cell.reports.first() else { continue };
        let Some(groups) = &report.groups else { continue };
        println!("{} @ {} sessions:", cell.protocol, cell.x);
        for g in groups {
            let legit = g
                .convergence
                .as_ref()
                .map(|c| format!("{:.0}% legitimate", c.legitimacy_ratio() * 100.0))
                .unwrap_or_else(|| "unprobed".to_string());
            println!(
                "  group {} (source n{}): pdr={:.3} members {}→{} joins={} leaves={} \
                 energy={:.2} J ({legit})",
                g.group,
                g.source,
                g.pdr,
                g.members_initial,
                g.members_final,
                g.joins,
                g.leaves,
                g.energy_j,
            );
        }
        let attributed: f64 = groups.iter().map(|g| g.energy_j).sum();
        println!(
            "  medium total {:.2} J, attributed to sessions {:.2} J",
            report.total_energy_j, attributed
        );
    }
}
