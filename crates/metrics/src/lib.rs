//! # ssmcast-metrics — summary statistics for the experiment harness
//!
//! The paper's figures plot mean values over several mobility scenarios. This crate turns
//! per-run measurements into summary statistics (mean, standard deviation, confidence
//! intervals) and series of (x, y) points ready to be printed as the paper's figures.

#![warn(missing_docs)]

pub mod convergence;
pub mod engine;
pub mod group;
pub mod lifetime;
pub mod mac;
pub mod series;
pub mod silence;
pub mod stats;
pub mod streaming;

pub use convergence::ConvergenceStats;
pub use engine::EngineStats;
pub use group::GroupStats;
pub use lifetime::{LifetimeStats, RESIDUAL_HISTOGRAM_BINS};
pub use mac::MacStats;
pub use series::{Series, SeriesPoint};
pub use silence::{SessionSilence, SilenceStats};
pub use stats::{energy_per_delivered_byte_uj, SummaryStats};
pub use streaming::{
    CurveRing, FixedBinHistogram, MetricsConfig, SeqDedup, StreamingStats, WindowLedger,
};
