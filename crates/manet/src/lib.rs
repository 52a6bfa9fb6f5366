//! # ssmcast-manet — mobile ad hoc network substrate
//!
//! Everything the paper gets "for free" from ns-2, rebuilt as a library:
//!
//! * [`geometry`] — 2-D points and deployment areas.
//! * [`mobility`] — random-waypoint (with the non-zero minimum-speed fix), Gauss–Markov,
//!   grid placement and stationary trajectories.
//! * [`energy`] — first-order radio energy model with power control, plus radio timing.
//! * [`battery`] — per-node energy accounting split by purpose (tx/rx/overhear plus
//!   continuous idle-listen/sleep drain).
//! * [`lifecycle`] — the energy lifecycle: seeded radio duty-cycle schedules,
//!   idle/sleep drain rates and distance-based TX power control; battery depletion is
//!   a permanent node death feeding the [`ssmcast_metrics::LifetimeStats`] block.
//! * [`harvest`] — energy-harvesting node model: seeded per-node harvest rates and
//!   harvest-until-threshold wake, turning depletion into a power-cycling episode.
//! * [`channel`] — broadcast medium occupancy and the capture-effect collision model.
//! * [`mac`] — pluggable medium-access policies deciding when pending broadcasts hit
//!   the air: legacy random jitter, carrier-sense CSMA with exponential backoff, and a
//!   self-stabilizing TDMA slot assignment in the style of Leone & Schiller.
//! * [`packet`] / [`node`] — frames, node ids, multicast group roles.
//! * [`agent`] — the [`agent::ProtocolAgent`] trait protocol crates implement.
//! * [`faults`] — fault injection: seeded [`faults::FaultPlan`]s (state corruption,
//!   crash/rejoin, link blackouts, battery drains) and the
//!   [`faults::StabilizationObserver`] probe interface for convergence measurement.
//! * [`silence`] — [`silence::SilenceConfig`]: adaptive beacon suppression (silent
//!   stabilization) for the self-stabilizing tree agents, with phase-split
//!   bytes-on-air accounting in the runtime.
//! * [`spatial`] — the uniform-grid [`spatial::SpatialIndex`] answering range queries in
//!   O(k) candidates instead of O(n).
//! * [`medium`] — the radio medium layer: [`medium::RadioMedium`] with epoch-cached
//!   positions and pluggable (grid / brute-force) neighbour queries.
//! * [`snapshot`] — frozen connectivity graphs for the synchronous protocol model,
//!   backed by the same spatial index.
//! * [`traffic`] — CBR multicast workload.
//! * [`runtime`] — [`runtime::NetworkSim`], the event loop that ties it all together and
//!   produces a [`report::SimReport`].
//! * [`engine`] — [`engine::EngineConfig`]: selects the classic sequential loop or the
//!   region-sharded multi-threaded engine for large-n runs.

#![warn(missing_docs)]

pub mod agent;
pub mod battery;
pub mod channel;
pub mod energy;
pub mod engine;
pub mod faults;
pub mod geometry;
pub mod harvest;
pub mod lifecycle;
pub mod mac;
pub mod medium;
pub mod mobility;
pub mod node;
pub mod packet;
pub mod report;
pub mod runtime;
pub mod session;
pub mod silence;
pub mod snapshot;
pub mod spatial;
pub mod traffic;

pub use agent::{Action, Disposition, NodeCtx, ProtocolAgent};
pub use battery::{Battery, EnergyUse};
pub use channel::Channel;
pub use energy::{EnergyModel, RadioConfig};
pub use engine::EngineConfig;
pub use faults::{
    scrambled_parent, FaultEvent, FaultKind, FaultPlan, FaultPlanSpec, ProbeContext, SessionProbe,
    StabilizationObserver,
};
pub use geometry::{Area, Vec2};
pub use harvest::{HarvestConfig, HarvestPlan};
pub use lifecycle::{DutyCycleConfig, DutySchedule, LifecycleConfig};
pub use mac::{MacConfig, MacDecision, MacFrame, MacKind, MacPolicy};
pub use medium::{MediumConfig, NeighborQuery, RadioMedium};
pub use mobility::{
    grid_positions, BoxedMobility, GaussMarkov, GaussMarkovConfig, Mobility, RandomWaypoint,
    Stationary, WaypointConfig,
};
pub use node::{GroupId, GroupRole, NodeId};
pub use packet::{DataTag, Packet, PacketClass};
pub use report::{GroupAccounting, SimReport, Trace};
pub use runtime::{NetEvent, NetworkSim, PendingFrame, SimSetup};
pub use session::{MembershipChange, MembershipEvent, SessionSetup};
pub use silence::SilenceConfig;
pub use snapshot::TopologySnapshot;
pub use spatial::SpatialIndex;
pub use traffic::TrafficConfig;
