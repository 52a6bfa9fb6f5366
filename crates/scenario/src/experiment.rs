//! The experiment builder: a declarative description of a (protocol × swept-parameter ×
//! repetition) grid, executed on a thread pool with results streamed through a
//! [`RunSink`].
//!
//! This replaces the old `sweep` / `run_repetitions` free functions. The differences that
//! matter at production scale:
//!
//! * **Streaming** — each [`SweepCell`] is pushed to the sink the moment its last
//!   repetition finishes *and* every earlier cell has been emitted, so progress, CSV and
//!   JSON output are live and deterministic. Sinks never need the grid to be resident;
//!   the engine itself buffers only the out-of-order completion window (jobs are
//!   dispatched in grid order, so the window is typically a handful of cells — though a
//!   pathologically slow first cell can grow it).
//! * **Direct indexing** — parallel results land in `(xi, pi)`-indexed slots; the old
//!   implementation re-scanned the full result vector once per cell (O(cells²·reps)).
//! * **Collision-free seeding** — the run for repetition `r` at column `xi` uses the
//!   nested derivation `SeedSequence::new(seed).child(r).child(xi)`. The old
//!   `child(r).master() + xi` arithmetic could collide across `(r, xi)` pairs.
//!
//! ```
//! use ssmcast_scenario::{Experiment, MemorySink, ProtocolKind, Scenario, SweptParameter};
//!
//! let mut base = Scenario::quick_test();
//! base.duration_s = 20.0;
//! base.n_nodes = 10;
//! let cells = Experiment::new(base)
//!     .protocol_kinds(&[ProtocolKind::Flooding])
//!     .sweep(SweptParameter::Velocity, [1.0, 10.0])
//!     .reps(1)
//!     .run();
//! assert_eq!(cells.len(), 2);
//! ```

use crate::protocol::{Protocol, ProtocolRegistry, UnknownProtocol};
use crate::runner::run_protocol;
use crate::scenario::{ProtocolKind, Scenario};
use crate::sink::{CellInfo, MemorySink, RunSink};
use crate::sweep::SweepCell;
use crate::SweptParameter;
use ssmcast_dessim::SeedSequence;
use ssmcast_manet::SimReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Derive the master seed for repetition `rep` of sweep column `xi`.
///
/// Nested children keep the whole grid collision-free (see the module docs); exposed so
/// tests and external tooling can reproduce any single run of a sweep.
pub fn derive_cell_seed(master: u64, rep: usize, xi: usize) -> u64 {
    SeedSequence::new(master).child(rep as u64).child(xi as u64).master()
}

/// A declarative experiment: base scenario, protocols, swept parameter and repetitions.
///
/// Build with the fluent methods, then call [`Experiment::run`] (collect everything) or
/// [`Experiment::run_with_sink`] (stream cells). Construction is cheap; nothing runs
/// until then.
pub struct Experiment {
    base: Scenario,
    protocols: Vec<Arc<dyn Protocol>>,
    /// One entry per sweep column: the swept value and the configured scenario.
    columns: Option<Vec<(f64, Scenario)>>,
    reps: usize,
    threads: Option<usize>,
}

impl Experiment {
    /// Start an experiment from a base scenario.
    pub fn new(base: Scenario) -> Self {
        Experiment { base, protocols: Vec::new(), columns: None, reps: 1, threads: None }
    }

    /// Add one protocol.
    pub fn protocol(mut self, protocol: Arc<dyn Protocol>) -> Self {
        self.protocols.push(protocol);
        self
    }

    /// Add several protocols.
    pub fn protocols<I>(mut self, protocols: I) -> Self
    where
        I: IntoIterator<Item = Arc<dyn Protocol>>,
    {
        self.protocols.extend(protocols);
        self
    }

    /// Add built-in protocols by kind (convenience over [`ProtocolKind::to_protocol`]).
    pub fn protocol_kinds(self, kinds: &[ProtocolKind]) -> Self {
        self.protocols(kinds.iter().map(|k| k.to_protocol()))
    }

    /// Add registered protocols by name, failing on the first unknown name.
    pub fn protocols_by_name(
        mut self,
        registry: &ProtocolRegistry,
        names: &[&str],
    ) -> Result<Self, UnknownProtocol> {
        for name in names {
            self.protocols.push(registry.get(name)?);
        }
        Ok(self)
    }

    /// Sweep `parameter` over `xs` (each column is the base scenario with the parameter
    /// applied). Calling any sweep method again replaces the previous sweep.
    pub fn sweep(self, parameter: SweptParameter, xs: impl Into<Vec<f64>>) -> Self {
        self.sweep_with(xs, move |scenario, x| parameter.apply(scenario, x))
    }

    /// Sweep with an arbitrary configuration function — the fully general form for
    /// parameters outside [`SweptParameter`].
    pub fn sweep_with<F>(mut self, xs: impl Into<Vec<f64>>, configure: F) -> Self
    where
        F: Fn(&mut Scenario, f64),
    {
        let columns = xs
            .into()
            .into_iter()
            .map(|x| {
                let mut scenario = self.base;
                configure(&mut scenario, x);
                (x, scenario)
            })
            .collect();
        self.columns = Some(columns);
        self
    }

    /// Override the radio medium configuration (position-cache epoch, neighbour-query
    /// mode) for every run in the grid, including columns from an earlier
    /// [`Experiment::sweep`] call.
    pub fn medium(self, medium: ssmcast_manet::MediumConfig) -> Self {
        self.override_all(|s| s.medium = medium)
    }

    /// Override the fault-injection spec for every run in the grid, including columns
    /// from an earlier [`Experiment::sweep`] call. Every protocol in every cell then
    /// faces the *same* seeded fault schedule (per repetition), and each report carries
    /// a `ConvergenceStats` block from the stabilization probe.
    ///
    /// Because the override reaches every column, do **not** combine it with a
    /// [`crate::SweptParameter::FaultBursts`] sweep (it would overwrite the per-column
    /// burst counts) — set the base scenario's `faults` before that sweep instead.
    pub fn faults(self, faults: ssmcast_manet::FaultPlanSpec) -> Self {
        self.override_all(|s| s.faults = faults)
    }

    /// Override the event-loop engine for every run in the grid, including columns from
    /// an earlier [`Experiment::sweep`] call. The default sequential engine reproduces
    /// earlier builds byte for byte; [`ssmcast_manet::EngineConfig::sharded`] runs each
    /// cell on the region-parallel engine (shard-count invariant results).
    pub fn engine(self, engine: ssmcast_manet::EngineConfig) -> Self {
        self.override_all(|s| s.engine = engine)
    }

    /// Apply `patch` to the base scenario and to every column already built.
    fn override_all(mut self, patch: impl Fn(&mut Scenario)) -> Self {
        patch(&mut self.base);
        for (_, scenario) in self.columns.iter_mut().flatten() {
            patch(scenario);
        }
        self
    }

    /// Number of repetitions per cell (at least 1; each gets a derived seed).
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Cap the worker thread count (default: available parallelism). Results are
    /// identical for any thread count; this only bounds resource use.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Run the grid, streaming each completed cell through `sink`; nothing is retained.
    pub fn run_with_sink(self, sink: &mut dyn RunSink) {
        let base = self.base;
        let columns = self.columns.unwrap_or_else(|| vec![(0.0, base)]);
        let protocols = self.protocols;
        let reps = self.reps;
        let n_p = protocols.len();
        let total_cells = columns.len() * n_p;
        let total_jobs = total_cells * reps;
        if total_jobs == 0 {
            sink.finish();
            return;
        }
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            .clamp(1, total_jobs);

        let next_job = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, usize, SimReport)>();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next_job = &next_job;
                let columns = &columns;
                let protocols = &protocols;
                scope.spawn(move || loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    if job >= total_jobs {
                        break;
                    }
                    let rep = job % reps;
                    let cell = job / reps;
                    let pi = cell % n_p;
                    let xi = cell / n_p;
                    let (_, mut scenario) = columns[xi];
                    scenario.seed = derive_cell_seed(scenario.seed, rep, xi);
                    let report = run_protocol(&scenario, protocols[pi].as_ref());
                    if tx.send((cell, rep, report)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Collector: reports land in (cell, rep)-indexed slots; a cell is emitted as
            // soon as it completes *and* every earlier cell has been emitted, so sinks
            // see deterministic grid order while the grid is still running. Slot vectors
            // are allocated lazily on a cell's first report, so resident memory tracks
            // the in-flight window rather than the whole grid.
            let mut slots: Vec<Vec<Option<SimReport>>> =
                (0..total_cells).map(|_| Vec::new()).collect();
            let mut filled = vec![0usize; total_cells];
            let mut ready: Vec<Option<SweepCell>> = (0..total_cells).map(|_| None).collect();
            let mut next_emit = 0usize;
            for (cell, rep, report) in rx {
                if slots[cell].is_empty() {
                    slots[cell] = vec![None; reps];
                }
                debug_assert!(slots[cell][rep].is_none(), "job ran twice");
                slots[cell][rep] = Some(report);
                filled[cell] += 1;
                if filled[cell] < reps {
                    continue;
                }
                let reports: Vec<SimReport> =
                    slots[cell].iter_mut().map(|slot| slot.take().expect("filled")).collect();
                let xi = cell / n_p;
                let pi = cell % n_p;
                ready[cell] = Some(SweepCell {
                    x: columns[xi].0,
                    protocol: protocols[pi].name().to_string(),
                    reports,
                });
                while next_emit < total_cells {
                    match ready[next_emit].take() {
                        Some(done) => {
                            let info = CellInfo {
                                cell_index: next_emit,
                                total_cells,
                                xi: next_emit / n_p,
                                pi: next_emit % n_p,
                            };
                            sink.on_cell(&info, &done);
                            next_emit += 1;
                        }
                        None => break,
                    }
                }
            }
        });
        sink.finish();
    }

    /// Run the grid and collect every cell (a [`MemorySink`] under the hood).
    pub fn run(self) -> Vec<SweepCell> {
        let mut sink = MemorySink::new();
        self.run_with_sink(&mut sink);
        sink.into_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CsvStreamSink;
    use std::collections::HashSet;

    fn small_base() -> Scenario {
        let mut s = Scenario::quick_test();
        s.duration_s = 20.0;
        s.n_nodes = 12;
        s.group_size = 5;
        s
    }

    #[test]
    fn grid_seeds_are_distinct_across_reps_and_columns() {
        // Regression for the old `child(rep).master().wrapping_add(xi)` derivation,
        // which could collide across (rep, xi) pairs.
        let mut seen = HashSet::new();
        // 0x61c8864680b583eb is the adversarial master that collapsed the pre-fix
        // multiplicative `SeedSequence::child` derivation.
        for master in [0u64, 1, 0x55_5357, 0x61c8_8646_80b5_83eb, u64::MAX] {
            for rep in 0..20 {
                for xi in 0..20 {
                    seen.insert((master, derive_cell_seed(master, rep, xi)));
                }
            }
        }
        assert_eq!(seen.len(), 5 * 20 * 20, "derived grid seeds must never collide");
    }

    #[test]
    fn experiment_matches_manually_seeded_runs() {
        // The builder is plumbing, not physics: each cell must equal running the
        // configured scenario directly with the documented derived seed.
        let base = small_base();
        let xs = [1.0, 10.0];
        let cells = Experiment::new(base)
            .protocol_kinds(&[ProtocolKind::Flooding])
            .sweep(SweptParameter::Velocity, xs)
            .reps(2)
            .run();
        assert_eq!(cells.len(), 2);
        for (xi, cell) in cells.iter().enumerate() {
            assert_eq!(cell.reports.len(), 2);
            for (rep, report) in cell.reports.iter().enumerate() {
                let mut manual = base;
                manual.max_speed_mps = xs[xi];
                manual.seed = derive_cell_seed(base.seed, rep, xi);
                let expected = run_protocol(&manual, ProtocolKind::Flooding.to_protocol().as_ref());
                assert_eq!(*report, expected, "cell xi={xi} rep={rep} diverged");
            }
        }
    }

    #[test]
    fn zero_repetitions_run_once_and_keep_the_grid_shape() {
        let cells = Experiment::new(small_base())
            .protocol_kinds(&[ProtocolKind::Flooding, ProtocolKind::Odmrp])
            .sweep_with([1.0, 5.0], |s, v| s.max_speed_mps = v)
            .reps(0)
            .run();
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.reports.len() == 1), "reps are clamped to at least 1");
    }

    #[test]
    fn cells_stream_in_grid_order_with_progress_info() {
        struct OrderCheck {
            seen: Vec<CellInfo>,
            finished: bool,
        }
        impl RunSink for OrderCheck {
            fn on_cell(&mut self, info: &CellInfo, cell: &SweepCell) {
                assert_eq!(info.cell_index, self.seen.len());
                assert!(!cell.reports.is_empty());
                self.seen.push(*info);
            }
            fn finish(&mut self) {
                self.finished = true;
            }
        }
        let mut sink = OrderCheck { seen: Vec::new(), finished: false };
        Experiment::new(small_base())
            .protocol_kinds(&[ProtocolKind::Flooding, ProtocolKind::Odmrp])
            .sweep(SweptParameter::Velocity, [1.0, 5.0, 10.0])
            .run_with_sink(&mut sink);
        assert!(sink.finished);
        assert_eq!(sink.seen.len(), 6);
        assert_eq!(sink.seen[0], CellInfo { cell_index: 0, total_cells: 6, xi: 0, pi: 0 });
        assert_eq!(sink.seen[5], CellInfo { cell_index: 5, total_cells: 6, xi: 2, pi: 1 });
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let build = || {
            Experiment::new(small_base())
                .protocol_kinds(&[ProtocolKind::Flooding])
                .sweep(SweptParameter::Velocity, [1.0, 10.0])
                .reps(2)
        };
        let serial = build().threads(1).run();
        let parallel = build().threads(8).run();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.reports, b.reports);
        }
    }

    #[test]
    fn medium_override_reaches_every_cell_and_preserves_results() {
        use ssmcast_manet::MediumConfig;
        // Grid vs brute-force neighbour queries must not change a single report, even
        // when the override is applied after the sweep columns were built.
        let run = |medium: MediumConfig| {
            Experiment::new(small_base())
                .protocol_kinds(&[ProtocolKind::Flooding])
                .sweep(SweptParameter::Velocity, [1.0, 10.0])
                .medium(medium)
                .reps(2)
                .run()
        };
        let grid = run(MediumConfig::grid());
        let brute = run(MediumConfig::brute_force());
        assert_eq!(grid.len(), brute.len());
        for (g, b) in grid.iter().zip(&brute) {
            assert_eq!(g.reports, b.reports);
        }
    }

    #[test]
    fn registry_names_drive_an_experiment() {
        let registry = ProtocolRegistry::with_builtins();
        let cells = Experiment::new(small_base())
            .protocols_by_name(&registry, &["Flooding"])
            .expect("builtin name")
            .run();
        assert_eq!(cells.len(), 1, "no sweep means a single column");
        assert_eq!(cells[0].protocol, "Flooding");
        let err =
            Experiment::new(small_base()).protocols_by_name(&registry, &["Flooding", "nope"]).err();
        assert_eq!(err, Some(UnknownProtocol("nope".into())));
    }

    #[test]
    fn no_protocols_streams_nothing_but_finishes() {
        let mut sink = CsvStreamSink::new(Vec::new());
        Experiment::new(small_base()).run_with_sink(&mut sink);
        assert!(sink.into_inner().is_empty(), "no cells, not even a header");
    }
}
