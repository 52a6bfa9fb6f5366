//! # ssmcast-scenario — workloads, protocol registry, experiments and run sinks
//!
//! This crate is the experiment harness:
//!
//! * [`scenario`] — the paper's Section-6 simulation model as a [`scenario::Scenario`]
//!   value (50 nodes, 750 m × 750 m, 64 kbps CBR), the [`scenario::MobilityKind`]
//!   mobility plugin selector (random waypoint, Gauss–Markov, static grid) and the
//!   [`scenario::ProtocolKind`] convenience enum.
//! * [`protocol`] — the open half of the protocol API: the [`protocol::Protocol`]
//!   factory trait (type-erased `run(&Scenario, SimSetup, Vec<BoxedMobility>)`),
//!   closure-based per-node agent construction, and the name-keyed
//!   [`protocol::ProtocolRegistry`].
//! * [`runner`] — build roles, mobility and setup for a scenario and run one protocol to
//!   a [`ssmcast_manet::SimReport`].
//! * [`experiment`] — the [`experiment::Experiment`] builder: a (protocol × x × rep)
//!   grid executed on a thread pool, streaming each completed cell through a
//!   [`sink::RunSink`].
//! * [`sink`] — streaming consumers: in-memory, progress lines, incremental CSV and JSON
//!   Lines, and fan-out.
//! * [`sweep`] — the sweep result types and metric extractors.
//! * [`presets`] — one [`presets::FigureId`] per evaluation figure (7–16) with the exact
//!   swept parameter, x values, protocols and metric; [`presets::run_figure`] regenerates
//!   any of them (see `EXPERIMENTS.md`).
//! * [`output`] — CSV / JSON / markdown rendering of completed figure results.

#![warn(missing_docs)]

pub mod experiment;
pub mod output;
pub mod presets;
pub mod protocol;
pub mod runner;
pub mod scenario;
pub mod sink;
pub mod sweep;

pub use experiment::{derive_cell_seed, Experiment};
pub use output::{figure_to_text, series_to_csv, series_to_markdown, write_figure_files};
pub use presets::{
    base_scenario_for, run_figure, run_figure_with_sink, run_single_cell, scale_and_reps_from_env,
    FigureId, FigureResult, FigureSpec, SweptParameter,
};
pub use protocol::{FnProtocol, Protocol, ProtocolRegistry, UnknownProtocol};
pub use runner::{
    assign_roles, assign_session_roles, build_churn, build_mobility, build_setup, run_protocol,
};
pub use scenario::{MobilityKind, ProtocolKind, Scenario};
pub use sink::{
    CellInfo, CsvStreamSink, JsonLinesSink, MemorySink, NullSink, ProgressSink, RunSink, TeeSink,
};
pub use ssmcast_manet::{
    DutyCycleConfig, FaultPlanSpec, HarvestConfig, LifecycleConfig, MacConfig, MacKind,
};
pub use ssmcast_metrics::MetricsConfig;
pub use sweep::{to_series, Metric, SweepCell};
