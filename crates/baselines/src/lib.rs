//! # ssmcast-baselines — the multicast protocols the paper compares against
//!
//! * [`odmrp`] — On-Demand Multicast Routing Protocol: mesh-based, flooding Join Queries,
//!   redundant forwarding group. Best delivery ratio, highest control and energy cost.
//! * [`maodv`] — Multicast AODV: shared tree rooted at a group leader, on-demand control,
//!   lowest control overhead and lowest delivery ratio.
//! * [`flooding`] — blind flooding, used as a reference upper bound on deliverability.
//! * [`min_energy`] — MEM-Tree and DCA-Forward: forwarding agents for a precomputed
//!   minimum-energy (BIP) multicast tree, the latter duty-cycle-aware. Lower bounds on
//!   energy cost; no stabilization.
//!
//! All of them implement [`ssmcast_manet::ProtocolAgent`] and run unchanged in the same
//! simulator and scenarios as the SS-SPST family.

#![warn(missing_docs)]

pub mod flooding;
pub mod maodv;
pub mod min_energy;
pub mod odmrp;

pub use flooding::{FloodPayload, FloodingAgent};
pub use maodv::{MaodvAgent, MaodvPayload};
pub use min_energy::{MinEnergyAgent, MinEnergyPayload};
pub use odmrp::{OdmrpAgent, OdmrpPayload};
