//! Integration tests of the Experiment API v2 surface as seen through the umbrella
//! crate: registry-driven protocol selection, mobility plugins, the `Experiment` builder
//! with streaming sinks, and equivalence with directly seeded `run_protocol` calls.

use ssmcast::scenario::{
    derive_cell_seed, run_protocol, CsvStreamSink, Experiment, FigureId, MemorySink, MobilityKind,
    ProgressSink, ProtocolKind, ProtocolRegistry, RunSink, Scenario, SweptParameter, TeeSink,
};

fn small_base() -> Scenario {
    let mut s = Scenario::quick_test();
    s.duration_s = 20.0;
    s.n_nodes = 12;
    s.group_size = 5;
    s
}

#[test]
fn registry_names_round_trip_for_every_builtin() {
    let registry = ProtocolRegistry::with_builtins();
    for kind in ProtocolKind::all_builtin() {
        let protocol = kind.to_protocol();
        let looked_up = registry
            .lookup(protocol.name())
            .unwrap_or_else(|| panic!("{} is not registered", protocol.name()));
        assert_eq!(looked_up.name(), kind.name());
    }
}

#[test]
fn sweep_grid_shape_and_seeding_match_directly_seeded_runs() {
    // Each `Experiment` cell must equal a directly-run scenario with the documented
    // `derive_cell_seed`, pinned here against `run_protocol`.
    let base = small_base();
    let xs = [1.0, 10.0];
    let protocols = [ProtocolKind::Flooding, ProtocolKind::Odmrp];
    let grid = Experiment::new(base)
        .protocol_kinds(&protocols)
        .sweep_with(xs, |s, v| s.max_speed_mps = v)
        .reps(2)
        .run();
    assert_eq!(grid.len(), 4);
    for (i, cell) in grid.iter().enumerate() {
        let (xi, pi) = (i / protocols.len(), i % protocols.len());
        assert_eq!(cell.x, xs[xi]);
        assert_eq!(cell.protocol, protocols[pi].name());
        assert_eq!(cell.reports.len(), 2);
        for (rep, report) in cell.reports.iter().enumerate() {
            let mut manual = base;
            manual.max_speed_mps = xs[xi];
            manual.seed = derive_cell_seed(base.seed, rep, xi);
            let expected = run_protocol(&manual, protocols[pi].to_protocol().as_ref());
            assert_eq!(*report, expected, "cell xi={xi} pi={pi} rep={rep} diverged");
        }
    }
}

#[test]
fn figure_preset_runs_through_a_streaming_sink_stack() {
    // Fig10 at smoke scale: 4 beacon intervals × 2 protocols. Tee the stream into
    // memory + CSV + progress and confirm all three see the full grid, in order.
    let mut memory = MemorySink::new();
    let mut csv = CsvStreamSink::new(Vec::new());
    let mut progress = ProgressSink::new(Vec::new());
    let result = {
        let mut tee = TeeSink::new(vec![&mut memory, &mut csv, &mut progress]);
        ssmcast::scenario::run_figure_with_sink(FigureId::Fig10, 0.2, 1, &mut tee)
    };
    let expected_cells = result.spec.xs.len() * result.spec.protocols.len();
    assert_eq!(result.cells.len(), expected_cells);
    assert_eq!(memory.cells().len(), expected_cells);
    let csv_text = String::from_utf8(csv.into_inner()).unwrap();
    assert_eq!(csv_text.lines().count(), expected_cells + 1, "header + one row per rep");
    let progress_text = String::from_utf8(progress.into_inner()).unwrap();
    assert_eq!(progress_text.lines().count(), expected_cells);
    assert!(progress_text.contains(&format!("[1/{expected_cells}]")));
    assert!(progress_text.contains(&format!("[{expected_cells}/{expected_cells}]")));
}

#[test]
fn every_mobility_kind_runs_the_same_experiment_grid() {
    for kind in MobilityKind::ALL {
        let base = small_base().with_mobility(kind);
        let cells = Experiment::new(base)
            .protocol_kinds(&[ProtocolKind::Flooding])
            .sweep(SweptParameter::Velocity, [1.0, 10.0])
            .run();
        assert_eq!(cells.len(), 2, "{}", kind.name());
        for cell in &cells {
            assert_eq!(cell.reports.len(), 1);
            assert!(cell.reports[0].generated > 0, "{}", kind.name());
        }
    }
}

#[test]
fn grid_seeds_never_collide() {
    let mut seen = std::collections::HashSet::new();
    for rep in 0..32 {
        for xi in 0..32 {
            seen.insert(derive_cell_seed(0x55_5357, rep, xi));
        }
    }
    assert_eq!(seen.len(), 32 * 32);
}

#[test]
fn custom_sink_sees_grid_order() {
    struct Indices(Vec<usize>);
    impl RunSink for Indices {
        fn on_cell(
            &mut self,
            info: &ssmcast::scenario::CellInfo,
            _cell: &ssmcast::scenario::SweepCell,
        ) {
            self.0.push(info.cell_index);
        }
    }
    let mut sink = Indices(Vec::new());
    Experiment::new(small_base())
        .protocol_kinds(&[ProtocolKind::Flooding, ProtocolKind::Maodv])
        .sweep(SweptParameter::Velocity, [1.0, 5.0])
        .run_with_sink(&mut sink);
    assert_eq!(sink.0, vec![0, 1, 2, 3]);
}
