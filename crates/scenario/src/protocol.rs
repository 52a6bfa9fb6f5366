//! Pluggable protocol construction: the [`Protocol`] factory trait, a closure-based
//! adapter for per-node agent construction, and the name-keyed [`ProtocolRegistry`].
//!
//! Before this module existed, adding a protocol meant editing a central `match` over
//! [`ProtocolKind`]. Now a protocol is anything that can take a scenario plus the prebuilt
//! simulation ingredients and produce a report; the registry maps figure-legend names
//! ("SS-SPST-E", "ODMRP", ...) to factories, and [`ProtocolKind`] is a thin convenience
//! layer over the same machinery.

use crate::scenario::{ProtocolKind, Scenario};
use ssmcast_baselines::{FloodingAgent, MaodvAgent, MinEnergyAgent, OdmrpAgent};
use ssmcast_core::{
    min_energy_tree, MetricKind, MetricParams, MulticastTopology, SsSpstAgent, SsSpstConfig,
    StabilizationProbe,
};
use ssmcast_dessim::{SimDuration, SimTime};
use ssmcast_manet::{
    BoxedMobility, DutySchedule, NetworkSim, NodeId, ProtocolAgent, SimReport, SimSetup,
    TopologySnapshot,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A multicast protocol, packaged for the experiment harness.
///
/// `run` receives the scenario plus the already-built [`SimSetup`] and mobility processes
/// (so every protocol in a comparison sees *identical* roles, traffic and trajectories)
/// and returns the per-run report. Implementations are type-erased: the harness never
/// needs to know the concrete agent type, so new protocols register without touching any
/// central dispatch.
pub trait Protocol: Send + Sync {
    /// Display name matching the paper's figure legends (also the registry key).
    fn name(&self) -> &str;

    /// Run `scenario` and return the report.
    fn run(&self, scenario: &Scenario, setup: SimSetup, mobility: Vec<BoxedMobility>) -> SimReport;
}

type RunFn = Box<dyn Fn(&Scenario, SimSetup, Vec<BoxedMobility>) -> SimReport + Send + Sync>;

/// A [`Protocol`] built from a per-node agent constructor.
///
/// The constructor receives the scenario and the node id, so heterogeneous deployments
/// (different parameters — or different agents — per node) are first-class: see
/// [`FnProtocol::from_agent_fn`].
pub struct FnProtocol {
    name: String,
    run: RunFn,
}

impl FnProtocol {
    /// Wrap a per-node agent constructor into a protocol.
    ///
    /// `make_agent(scenario, node)` is called once per (session, node) pair —
    /// session-major, nodes in id order — so each node runs one independent protocol
    /// instance per concurrent multicast session, and a deployment can still mix
    /// configurations across nodes (e.g. a low-power tier with a shorter beacon
    /// interval) inside the standard harness.
    ///
    /// When the scenario configures faults *or group dynamics* (several sessions,
    /// membership churn), the run is driven through a [`StabilizationProbe`]
    /// (legitimacy probed every `faults.probe_epoch_s` seconds, per session) and the
    /// report carries `ConvergenceStats` blocks; plain fault-free single-group
    /// scenarios take the unprobed path and stay byte-identical to pre-fault builds.
    pub fn from_agent_fn<A, F>(name: impl Into<String>, make_agent: F) -> Self
    where
        A: ProtocolAgent + 'static,
        F: Fn(&Scenario, NodeId) -> A + Send + Sync + 'static,
    {
        let run: RunFn =
            Box::new(move |scenario: &Scenario, setup: SimSetup, mobility: Vec<BoxedMobility>| {
                let mut agents: Vec<A> = Vec::with_capacity(setup.n_sessions() * scenario.n_nodes);
                for _session in 0..setup.n_sessions() {
                    for i in 0..scenario.n_nodes {
                        agents.push(make_agent(scenario, NodeId(i as u32)));
                    }
                }
                run_sim(scenario, setup, mobility, agents)
            });
        FnProtocol { name: name.into(), run }
    }
}

impl Protocol for FnProtocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, scenario: &Scenario, setup: SimSetup, mobility: Vec<BoxedMobility>) -> SimReport {
        (self.run)(scenario, setup, mobility)
    }
}

impl fmt::Debug for FnProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnProtocol").field("name", &self.name).finish_non_exhaustive()
    }
}

/// Drive a fully-built simulation through the same probed/unprobed branch
/// [`FnProtocol::from_agent_fn`] uses, so custom [`Protocol`] impls report convergence
/// stats under faults and group dynamics exactly like closure-built ones.
fn run_sim<A: ProtocolAgent + 'static>(
    scenario: &Scenario,
    setup: SimSetup,
    mobility: Vec<BoxedMobility>,
    agents: Vec<A>,
) -> SimReport {
    let horizon = SimDuration::from_secs_f64(scenario.duration_s);
    let mut sim = NetworkSim::new(setup, mobility, agents);
    if scenario.faults.has_faults() || scenario.has_group_dynamics() {
        let epoch = SimDuration::from_secs_f64(scenario.faults.probe_epoch_s.max(0.05));
        let mut probe = StabilizationProbe::new(epoch);
        sim.run_probed(horizon, &mut probe)
    } else {
        sim.run(horizon)
    }
}

/// MEM-Tree and DCA-Forward: minimum-energy multicast from a centralized BIP tree.
///
/// Unlike the closure-built protocols, agent construction here is *session-aware*: the
/// factory snapshots every node's position at t = 0, builds one BIP minimum-energy tree
/// per session from that session's role table ([`min_energy_tree`]), prunes it to the
/// forwarding set, and hands each (session, node) agent its parent and forwarding
/// children with snapshot distances. With `duty_aware` set, agents additionally share
/// the run's materialised [`DutySchedule`] (rebuilt from the same seeds the runtime
/// uses, so the two views agree exactly) and defer forwards into receivers' wake
/// windows.
struct MinEnergyProtocol {
    name: &'static str,
    duty_aware: bool,
}

impl Protocol for MinEnergyProtocol {
    fn name(&self) -> &str {
        self.name
    }

    fn run(
        &self,
        scenario: &Scenario,
        setup: SimSetup,
        mut mobility: Vec<BoxedMobility>,
    ) -> SimReport {
        let n = setup.n_nodes;
        let positions =
            mobility.iter_mut().map(|m| m.position_at(SimTime::ZERO)).collect::<Vec<_>>();
        let snap = TopologySnapshot::new(positions, setup.radio.max_range_m);
        let params = MetricParams {
            energy: scenario.radio.energy,
            data_packet_bytes: scenario.packet_size_bytes,
        };
        let duty = self.duty_aware.then(|| {
            Arc::new(DutySchedule::from_seeds(&setup.lifecycle.duty_cycle, n, &setup.seeds))
        });
        let mut agents = Vec::with_capacity(setup.n_sessions() * n);
        for sess in &setup.sessions {
            let topo = MulticastTopology::for_session(&snap, &sess.roles);
            let tree = min_energy_tree(&topo, &params);
            let forwarding = tree.forwarding_set(&topo);
            for i in 0..n {
                let v = NodeId(i as u32);
                let children: Vec<(NodeId, f64)> = tree
                    .children(v)
                    .into_iter()
                    .filter(|c| forwarding[c.index()])
                    .filter_map(|c| topo.distance(v, c).map(|d| (c, d)))
                    .collect();
                agents.push(match &duty {
                    Some(d) => MinEnergyAgent::dca_forward(tree.parent(v), children, Arc::clone(d)),
                    None => MinEnergyAgent::mem_tree(tree.parent(v), children),
                });
            }
        }
        run_sim(scenario, setup, mobility, agents)
    }
}

/// The SS-SPST configuration a scenario implies (beacon interval + energy pricing).
fn ss_spst_config(scenario: &Scenario, kind: MetricKind) -> SsSpstConfig {
    SsSpstConfig {
        params: MetricParams {
            energy: scenario.radio.energy,
            data_packet_bytes: scenario.packet_size_bytes,
        },
        silence: scenario.silence,
        ..SsSpstConfig::with_beacon_interval(
            kind,
            SimDuration::from_secs_f64(scenario.beacon_interval_s),
        )
    }
}

impl ProtocolKind {
    /// The factory implementing this protocol kind — the bridge from the closed enum to
    /// the open [`Protocol`] world.
    pub fn to_protocol(self) -> Arc<dyn Protocol> {
        match self {
            ProtocolKind::SsSpst(kind) => Arc::new(FnProtocol::from_agent_fn(
                kind.protocol_name(),
                move |scenario: &Scenario, _node| SsSpstAgent::new(ss_spst_config(scenario, kind)),
            )),
            ProtocolKind::Maodv => {
                Arc::new(FnProtocol::from_agent_fn("MAODV", |_, _| MaodvAgent::with_defaults()))
            }
            ProtocolKind::Odmrp => {
                Arc::new(FnProtocol::from_agent_fn("ODMRP", |_, _| OdmrpAgent::with_defaults()))
            }
            ProtocolKind::Flooding => {
                Arc::new(FnProtocol::from_agent_fn("Flooding", |_, _| FloodingAgent::new()))
            }
            ProtocolKind::MemTree => {
                Arc::new(MinEnergyProtocol { name: "MEM-Tree", duty_aware: false })
            }
            ProtocolKind::DcaForward => {
                Arc::new(MinEnergyProtocol { name: "DCA-Forward", duty_aware: true })
            }
        }
    }

    /// Every built-in protocol kind (the four SS-SPST variants, SS-MST, and the
    /// baselines).
    pub fn all_builtin() -> Vec<ProtocolKind> {
        let mut kinds: Vec<ProtocolKind> =
            MetricKind::ALL.iter().map(|&k| ProtocolKind::SsSpst(k)).collect();
        kinds.extend([
            ProtocolKind::SsSpst(MetricKind::Bottleneck),
            ProtocolKind::Maodv,
            ProtocolKind::Odmrp,
            ProtocolKind::Flooding,
            ProtocolKind::MemTree,
            ProtocolKind::DcaForward,
        ]);
        kinds
    }
}

/// Error returned when a registry lookup by name fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownProtocol(pub String);

impl fmt::Display for UnknownProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown protocol {:?}", self.0)
    }
}

impl std::error::Error for UnknownProtocol {}

/// A name-keyed collection of protocol factories.
///
/// Lookup keys are the factories' own [`Protocol::name`]s, so names round-trip:
/// `registry.lookup(p.name())` returns a factory producing `p`'s protocol.
#[derive(Clone, Default)]
pub struct ProtocolRegistry {
    entries: BTreeMap<String, Arc<dyn Protocol>>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-populated with every built-in protocol (see
    /// [`ProtocolKind::all_builtin`]), keyed by their figure-legend names.
    pub fn with_builtins() -> Self {
        let mut registry = Self::new();
        for kind in ProtocolKind::all_builtin() {
            registry.register(kind.to_protocol());
        }
        registry
    }

    /// Register a protocol under its own name; returns the factory it displaced, if any.
    pub fn register(&mut self, protocol: Arc<dyn Protocol>) -> Option<Arc<dyn Protocol>> {
        self.entries.insert(protocol.name().to_string(), protocol)
    }

    /// Register a per-node agent constructor under `name` (see
    /// [`FnProtocol::from_agent_fn`]).
    pub fn register_agent_fn<A, F>(&mut self, name: impl Into<String>, make_agent: F)
    where
        A: ProtocolAgent + 'static,
        F: Fn(&Scenario, NodeId) -> A + Send + Sync + 'static,
    {
        self.register(Arc::new(FnProtocol::from_agent_fn(name, make_agent)));
    }

    /// The factory registered under `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<Arc<dyn Protocol>> {
        self.entries.get(name).cloned()
    }

    /// Like [`Self::lookup`], but with a descriptive error for experiment plumbing.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Protocol>, UnknownProtocol> {
        self.lookup(name).ok_or_else(|| UnknownProtocol(name.to_string()))
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered protocols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for ProtocolRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ProtocolRegistry").field(&self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_protocol;

    #[test]
    fn builtin_names_round_trip_through_the_registry() {
        let registry = ProtocolRegistry::with_builtins();
        assert_eq!(
            registry.len(),
            10,
            "4 SS-SPST variants + SS-MST + MAODV + ODMRP + Flooding + MEM-Tree + DCA-Forward"
        );
        for kind in ProtocolKind::all_builtin() {
            let p = kind.to_protocol();
            let found = registry
                .lookup(p.name())
                .unwrap_or_else(|| panic!("{} missing from the builtin registry", p.name()));
            assert_eq!(found.name(), p.name());
        }
        assert!(registry.lookup("no-such-protocol").is_none());
        assert_eq!(
            registry.get("no-such-protocol").err(),
            Some(UnknownProtocol("no-such-protocol".into()))
        );
    }

    #[test]
    fn registry_runs_a_protocol_end_to_end() {
        let registry = ProtocolRegistry::with_builtins();
        let mut s = Scenario::quick_test();
        s.duration_s = 20.0;
        s.n_nodes = 12;
        s.group_size = 5;
        let flooding = registry.lookup("Flooding").expect("builtin");
        let report = run_protocol(&s, flooding.as_ref());
        assert_eq!(report.protocol, "Flooding");
        assert!(report.generated > 0);
    }

    #[test]
    fn heterogeneous_agent_construction_is_first_class() {
        use ssmcast_core::MetricKind;
        // Odd nodes run a 1 s beacon interval, even nodes the scenario default: a
        // two-tier deployment expressed as one protocol.
        let mut registry = ProtocolRegistry::new();
        registry.register_agent_fn("SS-SPST-E/two-tier", |scenario: &Scenario, node| {
            let mut config = ss_spst_config(scenario, MetricKind::EnergyAware);
            if node.0 % 2 == 1 {
                config.beacon_interval = SimDuration::from_secs(1);
            }
            SsSpstAgent::new(config)
        });
        let mut s = Scenario::quick_test();
        s.duration_s = 20.0;
        s.n_nodes = 10;
        s.group_size = 4;
        let p = registry.lookup("SS-SPST-E/two-tier").expect("registered");
        let report = run_protocol(&s, p.as_ref());
        assert!(report.control_packets > 0);
    }

    #[test]
    fn mem_tree_runs_end_to_end_and_delivers() {
        let mut s = Scenario::quick_test();
        s.duration_s = 30.0;
        s.n_nodes = 16;
        s.group_size = 6;
        s.mobility = crate::scenario::MobilityKind::StaticGrid;
        let report = run_protocol(&s, ProtocolKind::MemTree.to_protocol().as_ref());
        assert_eq!(report.protocol, "MEM-Tree");
        assert!(report.pdr > 0.9, "static tree on a static grid delivers: pdr = {}", report.pdr);
        assert_eq!(report.control_packets, 0, "a centralized tree needs no control traffic");
    }

    #[test]
    fn dca_forward_out_delivers_schedule_blind_protocols_under_duty_cycling() {
        // Awake fraction 0.25: a schedule-blind forwarder loses ~3/4 of its deliveries
        // to sleeping radios, while DCA-Forward defers each child's copy into that
        // child's wake window. This is the tentpole's acceptance claim in miniature
        // (the full sweep is FigMinEnergy).
        let mut s = Scenario::quick_test();
        s.duration_s = 40.0;
        s.n_nodes = 16;
        s.group_size = 6;
        s.mobility = crate::scenario::MobilityKind::StaticGrid;
        s.lifecycle = s
            .lifecycle
            .with_duty_cycle(SimDuration::from_secs(1), 0.25)
            .with_tx_power_control(true)
            .with_duty_aware_pricing(true);
        let dca = run_protocol(&s, ProtocolKind::DcaForward.to_protocol().as_ref());
        let mem = run_protocol(&s, ProtocolKind::MemTree.to_protocol().as_ref());
        let ss_e = run_protocol(
            &s,
            ProtocolKind::SsSpst(ssmcast_core::MetricKind::EnergyAware).to_protocol().as_ref(),
        );
        assert!(
            dca.pdr > mem.pdr,
            "wake-window deferral beats schedule-blind tree forwarding: {} vs {}",
            dca.pdr,
            mem.pdr
        );
        assert!(
            dca.pdr > ss_e.pdr,
            "wake-window deferral beats SS-SPST-E under sleep: {} vs {}",
            dca.pdr,
            ss_e.pdr
        );
    }

    #[test]
    fn custom_registration_displaces_and_coexists() {
        let mut registry = ProtocolRegistry::with_builtins();
        let displaced = registry.register(ProtocolKind::Flooding.to_protocol());
        assert!(displaced.is_some(), "re-registering a name returns the old factory");
        assert_eq!(registry.len(), 10);
        assert_eq!(
            registry.names(),
            vec![
                "DCA-Forward",
                "Flooding",
                "MAODV",
                "MEM-Tree",
                "ODMRP",
                "SS-MST",
                "SS-SPST",
                "SS-SPST-E",
                "SS-SPST-F",
                "SS-SPST-T"
            ]
        );
    }
}
