//! # ssmcast-core — the SS-SPST protocol family
//!
//! This crate implements the paper's contribution: self-stabilizing shortest-path
//! spanning-tree multicast with pluggable cost metrics, culminating in the energy-aware
//! SS-SPST-E metric that accounts for transmission energy to the costliest tree neighbour,
//! reception energy, and the discard (overhearing) energy of non-group neighbours.
//!
//! Two complementary implementations share the metric definitions in [`metric`]:
//!
//! * [`sync_model::SyncModel`] — a synchronous, round-based executor over an abstract
//!   weighted graph with global knowledge. It reproduces the paper's worked examples
//!   (Figures 1–6, see [`paper_example`]) and carries the convergence, closure and
//!   loop-freedom lemmas.
//! * [`agent::SsSpstAgent`] — an event-driven [`ssmcast_manet::ProtocolAgent`] that runs
//!   inside the MANET simulator: periodic beacons carry the protocol variables, neighbour
//!   tables expire, the tree is pruned bottom-up, and data is forwarded down the tree with
//!   power control. This is what the paper's Figures 7–16 evaluate. The same agent
//!   runs SS-MST, a minimum-bottleneck tree, under [`MetricKind::Bottleneck`].
//!
//! ```
//! use ssmcast_core::{figure1_topology, MetricKind, MetricParams, SyncModel};
//!
//! let mut model = SyncModel::new(figure1_topology(), MetricKind::EnergyAware, MetricParams::default());
//! let rounds = model.run_to_stabilization(100).expect("stabilizes");
//! let tree = model.tree();
//! assert!(tree.is_spanning());
//! assert!(rounds >= 2);
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod beacon;
pub mod graph;
pub mod metric;
pub mod min_energy;
pub mod paper_example;
pub mod probe;
pub mod sync_model;
pub mod tree;

pub use agent::{SsSpstAgent, SsSpstConfig, SsSpstPayload};
pub use beacon::Beacon;
pub use graph::MulticastTopology;
pub use metric::{cost_via, join_overhead, node_cost, MetricKind, MetricParams, ParentView};
pub use min_energy::{min_energy_tree, tree_tx_power};
pub use paper_example::{figure1_topology, run_all_examples, run_example, ExampleResult};
pub use probe::{is_legitimate, legitimate_over, session_legitimate, StabilizationProbe};
pub use sync_model::{NodeState, RoundReport, SyncModel};
pub use tree::MulticastTree;
