//! The scenario itself: protocol, topology, flow mix and budgets, the
//! validating builder, and the digest the shard handshake pins.

use snake_dccp::DccpProfile;
use snake_netsim::{
    DumbbellSpec, Impairment, LinkSpec, TopologyGen, TopologyGenSpec, TopologyKind,
};
use snake_tcp::Profile;

/// The protocol and implementation under test in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolKind {
    /// TCP with the given implementation profile.
    Tcp(Profile),
    /// DCCP with the given implementation profile.
    Dccp(DccpProfile),
}

impl ProtocolKind {
    /// The implementation's display name (Table I's "Implementation").
    pub fn implementation_name(&self) -> &str {
        match self {
            ProtocolKind::Tcp(p) => &p.name,
            ProtocolKind::Dccp(p) => &p.name,
        }
    }

    /// The protocol's display name (Table I's "Protocol").
    pub fn protocol_name(&self) -> &'static str {
        match self {
            ProtocolKind::Tcp(_) => "TCP",
            ProtocolKind::Dccp(_) => "DCCP",
        }
    }

    /// The well-known service port the servers listen on.
    pub fn service_port(&self) -> u16 {
        match self {
            ProtocolKind::Tcp(_) => 80,
            ProtocolKind::Dccp(_) => 5_001,
        }
    }
}

/// The network a scenario runs on: the paper's Figure-3 dumbbell, or a
/// generated star/tree/multi-bottleneck layout of up to thousands of hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// The classic four-host dumbbell (the degenerate case).
    Dumbbell(DumbbellSpec),
    /// A seeded generated topology (see [`TopologyGen`]).
    Generated(TopologyGenSpec),
}

impl TopologySpec {
    /// The bottleneck-class link template of either variant.
    pub fn bottleneck(&self) -> &LinkSpec {
        match self {
            TopologySpec::Dumbbell(d) => &d.bottleneck,
            TopologySpec::Generated(g) => &g.bottleneck,
        }
    }

    fn bottleneck_mut(&mut self) -> &mut LinkSpec {
        match self {
            TopologySpec::Dumbbell(d) => &mut d.bottleneck,
            TopologySpec::Generated(g) => &mut g.bottleneck,
        }
    }
}

/// What a flow does in a multi-flow scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowRole {
    /// The proxied flow(s) under attack: bulk downloads from the attacked
    /// server, opened by the attacked client (staggered 100 ms apart, like
    /// the classic target connections).
    Attacked,
    /// Long-lived background bulk downloads competing for the bottleneck.
    Bulk,
    /// Short-lived request/response exchanges: the server pushes a small
    /// response and closes.
    RequestResponse,
    /// Connection-churn pressure on the server's socket table: the server
    /// answers with a single byte and closes, leaving the accept path and
    /// TIME_WAIT slots doing all the work.
    SynPressure,
}

impl FlowRole {
    /// Stable lowercase label (used by the CLI and the shard wire).
    pub fn label(&self) -> &'static str {
        match self {
            FlowRole::Attacked => "attacked",
            FlowRole::Bulk => "bulk",
            FlowRole::RequestResponse => "request-response",
            FlowRole::SynPressure => "syn-pressure",
        }
    }

    /// Inverse of [`FlowRole::label`], with short CLI aliases.
    pub fn from_label(label: &str) -> Option<FlowRole> {
        match label {
            "attacked" => Some(FlowRole::Attacked),
            "bulk" => Some(FlowRole::Bulk),
            "request-response" | "request_response" | "rr" => Some(FlowRole::RequestResponse),
            "syn-pressure" | "syn_pressure" | "syn" => Some(FlowRole::SynPressure),
            _ => None,
        }
    }
}

/// `count` concurrent flows of one role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowGroup {
    /// The role every flow in the group plays.
    pub role: FlowRole,
    /// Number of flows; must be positive.
    pub count: usize,
}

/// Errors from [`ScenarioSpecBuilder::build`] — the scenario-level analogue
/// of the campaign builder's `InvalidConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A builder setting is degenerate or contradictory.
    InvalidConfig {
        /// Human-readable explanation of what was rejected.
        detail: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidConfig { detail } => write!(f, "invalid scenario: {detail}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One test scenario: everything an executor needs to run a strategy (or
/// the baseline) and measure the outcome.
///
/// Construct via [`ScenarioSpec::builder`] (validating) or the
/// [`evaluation`](ScenarioSpec::evaluation) / [`quick`](ScenarioSpec::quick)
/// presets; fields are read through accessors. Every spec this type can
/// hold has passed the builder's validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Protocol and implementation under test (all hosts run it).
    pub(crate) protocol: ProtocolKind,
    /// The network the scenario runs on.
    pub(crate) topology: TopologySpec,
    /// The flow mix for generated topologies; `None` means the classic
    /// "one attacked flow + one competitor" dumbbell workload.
    pub(crate) flows: Option<Vec<FlowGroup>>,
    /// Length of the data-transfer phase.
    pub(crate) data_secs: u64,
    /// Observation window after the test ends (clients killed / servers
    /// stopped) before the socket census — the paper's post-test `netstat`.
    pub(crate) grace_secs: u64,
    /// Simulation seed. Identical seeds give identical runs.
    pub(crate) seed: u64,
    /// Number of connections the target client opens (staggered 100 ms
    /// apart). The evaluation uses 1; the resource-exhaustion scaling
    /// experiment raises it to show leaked sockets accumulating per
    /// connection — the paper's "an attacker can easily initiate hundreds
    /// of thousands of such connections" (§VI-A.1), scaled to simulation.
    pub(crate) target_connections: usize,
    /// Optional cap on simulator events for the whole run. A livelocked or
    /// packet-storm strategy is deterministically truncated when the cap is
    /// hit (the run's metrics then carry
    /// [`TestMetrics::truncated`](super::TestMetrics::truncated)) instead of
    /// hanging an executor. `None` means unbounded.
    pub(crate) event_budget: Option<u64>,
}

impl ScenarioSpec {
    /// A validating builder seeded with the evaluation defaults. The
    /// [`topology`](ScenarioSpecBuilder::topology) and
    /// [`flows`](ScenarioSpecBuilder::flows) knobs are the only way to
    /// reach the generated multi-flow workload.
    pub fn builder(protocol: ProtocolKind) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            protocol,
            generated: None,
            bottleneck: DumbbellSpec::evaluation_default().bottleneck,
            access: DumbbellSpec::evaluation_default().access,
            flows: None,
            impair: None,
            data_secs: 20,
            grace_secs: 40,
            seed: 7,
            target_connections: 1,
            event_budget: None,
        }
    }

    /// The configuration used for the evaluation: 20 simulated seconds of
    /// data transfer and a 40-second post-test observation window on the
    /// default dumbbell. The window is long enough for a Windows stack's
    /// five-retry give-up (with exponential backoff, ≈30 s) to free its
    /// sockets — only genuinely wedged connections count as leaks.
    pub fn evaluation(protocol: ProtocolKind) -> ScenarioSpec {
        ScenarioSpec::builder(protocol)
            .build()
            .expect("evaluation preset is valid")
    }

    /// A reduced configuration for tests: 6 s of data, 35 s of grace.
    pub fn quick(protocol: ProtocolKind) -> ScenarioSpec {
        ScenarioSpec::builder(protocol)
            .quick()
            .build()
            .expect("quick preset is valid")
    }

    /// Protocol and implementation under test.
    pub fn protocol(&self) -> &ProtocolKind {
        &self.protocol
    }

    /// The network the scenario runs on.
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// The flow mix for generated topologies (`None` = classic workload).
    pub fn flows(&self) -> Option<&[FlowGroup]> {
        self.flows.as_deref()
    }

    /// Length of the data-transfer phase in simulated seconds.
    pub fn data_secs(&self) -> u64 {
        self.data_secs
    }

    /// Post-test observation window in simulated seconds.
    pub fn grace_secs(&self) -> u64 {
        self.grace_secs
    }

    /// Simulation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Connections the attacked client opens.
    pub fn target_connections(&self) -> usize {
        self.target_connections
    }

    /// Optional cap on simulator events for the whole run.
    pub fn event_budget(&self) -> Option<u64> {
        self.event_budget
    }

    /// The bottleneck link template of the scenario's topology.
    pub fn bottleneck(&self) -> &LinkSpec {
        self.topology.bottleneck()
    }

    /// Returns the spec with a different traffic seed. A generated
    /// topology's layout seed is bound when the spec is built, so reseeding
    /// varies the traffic draws without moving hosts — ensemble members
    /// measure the same network.
    pub fn with_seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = seed;
        self
    }

    /// Returns the spec with an event budget applied.
    pub fn with_event_budget(mut self, budget: u64) -> ScenarioSpec {
        self.event_budget = Some(budget);
        self
    }

    /// Returns the spec with any event budget removed.
    pub fn without_event_budget(mut self) -> ScenarioSpec {
        self.event_budget = None;
        self
    }

    /// Returns the spec with `impair` applied to the topology's bottleneck
    /// link(s) — the shared path competing flows cross, so loss, jitter,
    /// duplication, corruption and flap windows hit target and competing
    /// traffic alike (an adversarial *environment*, not an attack).
    /// Impairment draws come from per-link RNG lanes, so the rest of the
    /// simulation is bit-identical with and without this.
    pub fn with_impairment(mut self, impair: Impairment) -> ScenarioSpec {
        let b = self.topology.bottleneck_mut();
        *b = b.with_impairment(impair);
        self
    }
}

/// Stable FNV-1a digest of everything scenario-side that can influence a
/// verdict: the full [`ScenarioSpec`] (topology, workload, budgets, seed,
/// impairments), the detection threshold, and the baseline-ensemble size.
/// The shard handshake pins it, so outcomes evaluated under one
/// configuration are never admitted under another.
/// Hashing the spec's `Debug` rendering deliberately over-approximates —
/// any representational change (a new field, a reordered one) moves the
/// digest and rejects old data in the safe direction.
pub fn scenario_digest(spec: &ScenarioSpec, threshold: f64, baseline_reps: usize) -> u64 {
    crate::journal::line_checksum(
        format!("{spec:?}|threshold={threshold}|baseline_reps={baseline_reps}").as_bytes(),
    )
}

/// Validating builder for [`ScenarioSpec`], mirroring
/// `CampaignConfig::builder`. Defaults are the evaluation preset.
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    protocol: ProtocolKind,
    /// `Some((kind, hosts))` switches from the dumbbell to a generated
    /// topology; its layout seed is bound to `seed` at build time.
    generated: Option<(TopologyKind, usize)>,
    bottleneck: LinkSpec,
    access: LinkSpec,
    flows: Option<Vec<FlowGroup>>,
    impair: Option<Impairment>,
    data_secs: u64,
    grace_secs: u64,
    seed: u64,
    target_connections: usize,
    event_budget: Option<u64>,
}

impl ScenarioSpecBuilder {
    /// Switches to the reduced test preset: 6 s of data, 35 s of grace.
    pub fn quick(mut self) -> ScenarioSpecBuilder {
        self.data_secs = 6;
        self.grace_secs = 35;
        self
    }

    /// Generates a `kind` topology with `hosts` end hosts instead of the
    /// dumbbell. Requires [`flows`](ScenarioSpecBuilder::flows).
    pub fn topology(mut self, kind: TopologyKind, hosts: usize) -> ScenarioSpecBuilder {
        self.generated = Some((kind, hosts));
        self
    }

    /// The flow mix to run on a generated topology. Exactly one
    /// [`FlowRole::Attacked`] group is required.
    pub fn flows(mut self, flows: Vec<FlowGroup>) -> ScenarioSpecBuilder {
        self.flows = Some(flows);
        self
    }

    /// Overrides the bottleneck-class link template.
    pub fn bottleneck(mut self, link: LinkSpec) -> ScenarioSpecBuilder {
        self.bottleneck = link;
        self
    }

    /// Overrides the access-link template.
    pub fn access(mut self, link: LinkSpec) -> ScenarioSpecBuilder {
        self.access = link;
        self
    }

    /// Applies an impairment to the bottleneck link(s).
    pub fn impairment(mut self, impair: Impairment) -> ScenarioSpecBuilder {
        self.impair = Some(impair);
        self
    }

    /// Length of the data-transfer phase in simulated seconds.
    pub fn data_secs(mut self, secs: u64) -> ScenarioSpecBuilder {
        self.data_secs = secs;
        self
    }

    /// Post-test observation window in simulated seconds.
    pub fn grace_secs(mut self, secs: u64) -> ScenarioSpecBuilder {
        self.grace_secs = secs;
        self
    }

    /// Simulation seed (also the generated topology's layout seed).
    pub fn seed(mut self, seed: u64) -> ScenarioSpecBuilder {
        self.seed = seed;
        self
    }

    /// Connections the attacked client opens (classic workload).
    pub fn target_connections(mut self, count: usize) -> ScenarioSpecBuilder {
        self.target_connections = count;
        self
    }

    /// Cap on simulator events for the whole run.
    pub fn event_budget(mut self, budget: u64) -> ScenarioSpecBuilder {
        self.event_budget = Some(budget);
        self
    }

    /// Validates and builds the spec.
    pub fn build(self) -> Result<ScenarioSpec, ScenarioError> {
        fn invalid<T>(detail: String) -> Result<T, ScenarioError> {
            Err(ScenarioError::InvalidConfig { detail })
        }
        if self.data_secs == 0 {
            return invalid("data phase must be at least one second".into());
        }
        if self.target_connections == 0 {
            return invalid("target connection count must be positive".into());
        }
        for (what, link) in [("bottleneck", &self.bottleneck), ("access", &self.access)] {
            if link.bandwidth_bps == 0 {
                return invalid(format!("{what} link bandwidth must be positive"));
            }
            if link.queue_packets == 0 {
                return invalid(format!("{what} link queue must hold at least one packet"));
            }
        }
        let mut target_connections = self.target_connections;
        let topology = match self.generated {
            None => {
                if self.flows.is_some() {
                    return invalid(
                        "flow groups need a generated topology; call topology(...) too".into(),
                    );
                }
                TopologySpec::Dumbbell(DumbbellSpec {
                    bottleneck: self.bottleneck,
                    access: self.access,
                })
            }
            Some((kind, hosts)) => {
                let Some(flows) = &self.flows else {
                    return invalid(
                        "a generated topology needs a flow mix; call flows(...) too".into(),
                    );
                };
                if flows.is_empty() {
                    return invalid("the flow mix must name at least one group".into());
                }
                if let Some(g) = flows.iter().find(|g| g.count == 0) {
                    return invalid(format!("{} flow count must be positive", g.role.label()));
                }
                let attacked: Vec<_> = flows
                    .iter()
                    .filter(|g| g.role == FlowRole::Attacked)
                    .collect();
                match attacked.as_slice() {
                    [one] => target_connections = one.count,
                    [] => return invalid("the flow mix needs exactly one attacked group".into()),
                    _ => {
                        return invalid(
                            "the flow mix must not contain more than one attacked group".into(),
                        )
                    }
                }
                let gen = TopologyGenSpec {
                    kind,
                    hosts,
                    seed: self.seed,
                    bottleneck: self.bottleneck,
                    access: self.access,
                };
                // Generating is cheap and proves the layout is realizable.
                if let Err(detail) = TopologyGen::generate(&gen) {
                    return invalid(detail);
                }
                TopologySpec::Generated(gen)
            }
        };
        let mut spec = ScenarioSpec {
            protocol: self.protocol,
            topology,
            flows: self.flows,
            data_secs: self.data_secs,
            grace_secs: self.grace_secs,
            seed: self.seed,
            target_connections,
            event_budget: self.event_budget,
        };
        if let Some(impair) = self.impair {
            spec = spec.with_impairment(impair);
        }
        Ok(spec)
    }
}
