use std::sync::{Arc, OnceLock};

use snake_dccp::{DccpHost, DccpProfile, DccpServerApp};
use snake_json::ToJson;
use snake_netsim::{
    Addr, Dumbbell, DumbbellSpec, Impairment, LinkId, LinkSpec, NodeId, SimTime, Simulator,
    TopologyGen, TopologyGenSpec, TopologyKind,
};
use snake_observe::{self as observe, NullObserver, Observer};
use snake_packet::{FieldMutation, FormatSpec};
use snake_proxy::{
    AttackProxy, BasicAttack, DccpAdapter, ProtocolAdapter, ProxyConfig, ProxyReport,
    StateTimeline, Strategy, StrategyKind, TcpAdapter,
};
use snake_tcp::{Profile, ServerApp, TcpHost};

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
    /// hit (the run's metrics then carry [`TestMetrics::truncated`]) instead
    /// of hanging an executor. `None` means unbounded.
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

/// Everything an executor measures in one run and reports to the
/// controller (paper §V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct TestMetrics {
    /// Bytes the target (proxied) connection delivered to its application
    /// during the data phase.
    pub target_bytes: u64,
    /// Bytes the competing (unproxied) connection delivered.
    pub competing_bytes: u64,
    /// Server-1 sockets not released by the end of the grace period.
    pub leaked_sockets: usize,
    /// Of those, sockets stuck in CLOSE_WAIT (TCP) — the census detail
    /// behind the CLOSE_WAIT exhaustion attack.
    pub leaked_close_wait: usize,
    /// Server-1 sockets stuck with data still queued (DCCP OPEN/CLOSING).
    pub leaked_with_queue: usize,
    /// Whether the run hit the scenario's event budget and was cut short;
    /// the remaining metrics describe the truncated run, not a full one.
    pub truncated: bool,
    /// Total simulator events the run processed (throughput accounting;
    /// identical between a snapshot-forked run and a from-scratch one).
    pub sim_events: u64,
    /// Bytes delivered per client host at the end of the data phase,
    /// attacked client first. On the classic dumbbell this is
    /// `[target_bytes, competing_bytes]`; on generated topologies the flow
    /// spread puts (at most) one background flow per client, so this is the
    /// per-flow delivery vector the cross-flow detectors consume.
    pub flow_bytes: Vec<u64>,
    /// Server socket-table occupancy at the end of the data phase, summed
    /// over all servers: connections in any live state plus TIME_WAIT —
    /// the accept-queue/table pressure a SYN-pressure workload creates.
    pub server_sockets: usize,
    /// Post-grace leaked sockets summed over *all* servers (the classic
    /// [`leaked_sockets`](TestMetrics::leaked_sockets) counts only the
    /// attacked server).
    pub leaked_total: usize,
    /// The attack proxy's observation report, shared rather than deep-copied
    /// — campaigns hold hundreds of these for generator feedback.
    pub proxy: Arc<ProxyReport>,
}

/// A flow counts as starved when it delivered less than this fraction of
/// the fair share of the total.
const STARVATION_FRACTION: f64 = 0.1;

impl TestMetrics {
    /// An all-zero report used as the placeholder for runs that never
    /// produced metrics (e.g. a panicking engine isolated by the campaign
    /// runtime).
    pub fn empty() -> TestMetrics {
        TestMetrics {
            target_bytes: 0,
            competing_bytes: 0,
            leaked_sockets: 0,
            leaked_close_wait: 0,
            leaked_with_queue: 0,
            truncated: false,
            sim_events: 0,
            flow_bytes: Vec::new(),
            server_sockets: 0,
            leaked_total: 0,
            proxy: Arc::new(ProxyReport::default()),
        }
    }

    /// Jain's fairness index over [`flow_bytes`](TestMetrics::flow_bytes):
    /// `(Σx)² / (n·Σx²)`, 1.0 when all flows deliver equally, → 1/n as one
    /// flow monopolizes. Degenerate vectors (empty, or all-zero) are
    /// trivially fair: fairness is about *division* of delivered bytes, and
    /// a run that moved nothing is judged by the throughput detectors.
    pub fn jain_index(&self) -> f64 {
        let n = self.flow_bytes.len();
        if n == 0 {
            return 1.0;
        }
        let sum: f64 = self.flow_bytes.iter().map(|&b| b as f64).sum();
        let sum_sq: f64 = self
            .flow_bytes
            .iter()
            .map(|&b| (b as f64) * (b as f64))
            .sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (n as f64 * sum_sq)
    }

    /// Number of flows that delivered less than 10 % of the fair share
    /// (total / n). Zero for degenerate vectors — a run that moved nothing
    /// has no share to starve anyone of.
    pub fn starved_flows(&self) -> usize {
        let n = self.flow_bytes.len();
        if n < 2 {
            return 0;
        }
        let total: u64 = self.flow_bytes.iter().sum();
        if total == 0 {
            return 0;
        }
        let floor = STARVATION_FRACTION * total as f64 / n as f64;
        self.flow_bytes
            .iter()
            .filter(|&&b| (b as f64) < floor)
            .count()
    }
}

/// Runs scenarios: the paper's *executor*, which "initializes the virtual
/// machines from snapshots, starts the network emulator, configures the
/// attack proxy, and starts the test" — here, deterministically in-process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor;

impl Executor {
    /// Runs one scenario under `strategy` (or the baseline when `None`)
    /// and collects the metrics.
    pub fn run(spec: &ScenarioSpec, strategy: Option<Strategy>) -> TestMetrics {
        Executor::run_combination(spec, strategy.into_iter().collect())
    }

    /// Runs one scenario with several strategies active at once — a
    /// *combination strategy*, the extension the paper sketches at the end
    /// of §IV-C ("strategies consisting of sequences of actions").
    pub fn run_combination(spec: &ScenarioSpec, rules: Vec<Strategy>) -> TestMetrics {
        run_full(spec, rules, &NullObserver)
    }
}

/// The shared from-scratch run path: build, run to the end of the grace
/// period, census — reporting the simulator's event-loop stats to the
/// observer afterwards (never per event; the hot loop stays virtual-call
/// free).
fn run_full(spec: &ScenarioSpec, rules: Vec<Strategy>, observer: &dyn Observer) -> TestMetrics {
    let mut session = Session::build(spec, rules, false);
    let data_end = SimTime::from_secs(spec.data_secs);
    session.sim.run_until(data_end);
    let bytes = session.measure(spec);
    session.schedule_finish(spec, data_end);
    session
        .sim
        .run_until(SimTime::from_secs(spec.data_secs + spec.grace_secs));
    let metrics = session.finish(spec, bytes);
    record_sim_stats(observer, &session.sim);
    metrics
}

/// Folds a finished simulator's event-loop counters into the observer.
/// Deliberately *not* part of [`TestMetrics`]: the consumed/purged split
/// depends on how often `run_until` was re-entered, which differs between
/// the planner's paused replay and a straight run, and would trip the
/// determinism guard if compared.
fn record_sim_stats(observer: &dyn Observer, sim: &Simulator) {
    if !observer.enabled() {
        return;
    }
    let stats = sim.stats();
    observer.counter_add("netsim.events", stats.events_processed);
    observer.counter_add("netsim.timers_cancelled", stats.timers_cancelled);
    observer.counter_add("netsim.timers_purged", stats.timers_purged);
    observer.counter_add("netsim.queue.depth_hwm", stats.queue_depth_hwm);
    observer.counter_add("netsim.arena.alloc", stats.arena_alloc);
    observer.counter_add("netsim.arena.reuse", stats.arena_reuse);
    let (lost, duplicated, corrupted, reordered, flap_dropped) = sim.impairment_totals();
    if lost + duplicated + corrupted + reordered + flap_dropped > 0 {
        observer.counter_add("netsim.impair.lost", lost);
        observer.counter_add("netsim.impair.duplicated", duplicated);
        observer.counter_add("netsim.impair.corrupted", corrupted);
        observer.counter_add("netsim.impair.reordered", reordered);
        observer.counter_add("netsim.impair.flap_dropped", flap_dropped);
    }
}

/// Host/link handles a built scenario exposes to the measurement phases,
/// independent of which topology produced them. `clients[0]`/`servers[0]`
/// are the attacked pair; the proxy taps `proxy_link`.
#[derive(Debug, Clone)]
struct Wiring {
    proxy_link: LinkId,
    /// Whether the attacked client is endpoint `a` of `proxy_link`.
    proxy_client_is_a: bool,
    clients: Vec<NodeId>,
    servers: Vec<NodeId>,
}

fn proxy_config(w: &Wiring, spec: &ScenarioSpec) -> ProxyConfig {
    ProxyConfig {
        client_node: w.clients[0],
        client_is_a: w.proxy_client_is_a,
        server: Addr::new(w.servers[0], spec.protocol.service_port()),
        client_port_guess: 40_000,
        seed: spec.seed ^ 0x5A5A,
    }
}

/// Port serving short request/response flows on generated topologies.
const RR_PORT: u16 = 8_080;
/// Bytes a request/response server pushes before closing.
const RR_BYTES: u64 = 64 * 1024;
/// Port serving SYN-pressure flows.
const SYN_PORT: u16 = 9_090;
/// Bytes a SYN-pressure server pushes before closing — the connection's
/// cost is all handshake and teardown.
const SYN_BYTES: u64 = 1;

/// The fully expanded workload: which ports every server listens on (and
/// how many bytes each app serves) and every client's connection plan.
/// Pure data derived deterministically from the spec.
struct FlowPlan {
    /// `(port, app bytes)` installed on every server host; `u64::MAX`
    /// means an unbounded bulk sender.
    listens: Vec<(u16, u64)>,
    /// Per client (same order as `Wiring::clients`): `(time, server index,
    /// port)` connection plans.
    connects: Vec<Vec<(SimTime, usize, u16)>>,
}

fn flow_plan(spec: &ScenarioSpec, n_clients: usize, n_servers: usize) -> FlowPlan {
    let port = spec.protocol.service_port();
    let mut connects = vec![Vec::new(); n_clients];
    let Some(groups) = &spec.flows else {
        // Classic workload: the attacked client's staggered bulk
        // connections to server 0, one competitor to server 1. This arm
        // reproduces the pre-multi-flow executor call-for-call.
        for i in 0..spec.target_connections.max(1) {
            connects[0].push((SimTime::from_millis(100 * i as u64), 0, port));
        }
        if n_clients > 1 {
            connects[1].push((SimTime::ZERO, 1 % n_servers, port));
        }
        return FlowPlan {
            listens: vec![(port, u64::MAX)],
            connects,
        };
    };
    // Attacked flows mirror the classic stagger on client 0 / server 0;
    // background flows spread round-robin over the remaining clients and
    // all servers, each role with its own start cadence.
    let mut background = 0usize;
    let mut per_role = [0usize; 3];
    for group in groups {
        for _ in 0..group.count {
            let (client, server, at, to_port) = match group.role {
                FlowRole::Attacked => {
                    let i = connects[0].len() as u64;
                    (0, 0, SimTime::from_millis(100 * i), port)
                }
                FlowRole::Bulk => {
                    let i = per_role[0] as u64;
                    per_role[0] += 1;
                    (
                        1 + background % (n_clients - 1),
                        background % n_servers,
                        SimTime::from_millis(10 * i),
                        port,
                    )
                }
                FlowRole::RequestResponse => {
                    let i = per_role[1] as u64;
                    per_role[1] += 1;
                    (
                        1 + background % (n_clients - 1),
                        background % n_servers,
                        SimTime::from_millis(50 * i),
                        RR_PORT,
                    )
                }
                FlowRole::SynPressure => {
                    let i = per_role[2] as u64;
                    per_role[2] += 1;
                    (
                        1 + background % (n_clients - 1),
                        background % n_servers,
                        SimTime::from_millis(5 * i),
                        SYN_PORT,
                    )
                }
            };
            if group.role != FlowRole::Attacked {
                background += 1;
            }
            connects[client].push((at, server, to_port));
        }
    }
    FlowPlan {
        listens: vec![(port, u64::MAX), (RR_PORT, RR_BYTES), (SYN_PORT, SYN_BYTES)],
        connects,
    }
}

/// The byte/occupancy measurement taken at the end of the data phase.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    /// Bytes delivered per client host, attacked client first.
    flow_bytes: Vec<u64>,
    /// Socket-table occupancy summed over all servers.
    server_sockets: usize,
}

/// One built simulation of a scenario: the topology's hosts with the
/// attack proxy tapped into the attacked client's access link. Both the
/// from-scratch executor and the snapshot-fork planner drive their runs
/// through the same build / measure / schedule-finish / finish phases, so
/// the two paths execute byte-identical event sequences.
struct Session {
    sim: Simulator,
    wiring: Wiring,
}

impl Session {
    fn build(spec: &ScenarioSpec, rules: Vec<Strategy>, record_timeline: bool) -> Session {
        let mut sim = Simulator::new(spec.seed);
        if let Some(budget) = spec.event_budget {
            sim.set_event_budget(budget);
        }
        let wiring = match &spec.topology {
            TopologySpec::Dumbbell(d_spec) => {
                let d = Dumbbell::build(&mut sim, *d_spec);
                Wiring {
                    proxy_link: d.proxy_link,
                    // Dumbbell::build adds the proxy link as (client1, router1).
                    proxy_client_is_a: true,
                    clients: vec![d.client1, d.client2],
                    servers: vec![d.server1, d.server2],
                }
            }
            TopologySpec::Generated(g) => {
                let layout =
                    TopologyGen::generate(g).expect("generated topology validated by the builder");
                let built = layout.build(&mut sim);
                Wiring {
                    proxy_link: built.proxy_link,
                    proxy_client_is_a: built.proxy_client_is_a,
                    clients: built.clients,
                    servers: built.servers,
                }
            }
        };
        let plan = flow_plan(spec, wiring.clients.len(), wiring.servers.len());
        match &spec.protocol {
            ProtocolKind::Tcp(profile) => {
                for &server in &wiring.servers {
                    let mut host = TcpHost::new(profile.clone());
                    for &(p, bytes) in &plan.listens {
                        host.listen(p, ServerApp::bulk_sender(bytes));
                    }
                    sim.set_agent(server, host);
                }
                for (ci, &client) in wiring.clients.iter().enumerate() {
                    let mut host = TcpHost::new(profile.clone());
                    for &(at, si, p) in &plan.connects[ci] {
                        host.connect_at(at, Addr::new(wiring.servers[si], p));
                    }
                    sim.set_agent(client, host);
                }
                let mut proxy =
                    AttackProxy::with_rules(TcpAdapter, proxy_config(&wiring, spec), rules);
                if record_timeline {
                    proxy.record_timeline();
                }
                sim.attach_tap(wiring.proxy_link, proxy);
            }
            ProtocolKind::Dccp(profile) => {
                for &server in &wiring.servers {
                    let mut host = DccpHost::new(profile.clone());
                    for &(p, bytes) in &plan.listens {
                        host.listen(p, DccpServerApp::bulk_sender(bytes));
                    }
                    sim.set_agent(server, host);
                }
                for (ci, &client) in wiring.clients.iter().enumerate() {
                    let mut host = DccpHost::new(profile.clone());
                    for &(at, si, p) in &plan.connects[ci] {
                        host.connect_at(at, Addr::new(wiring.servers[si], p));
                    }
                    sim.set_agent(client, host);
                }
                let mut proxy =
                    AttackProxy::with_rules(DccpAdapter, proxy_config(&wiring, spec), rules);
                if record_timeline {
                    proxy.record_timeline();
                }
                sim.attach_tap(wiring.proxy_link, proxy);
            }
        }
        Session { sim, wiring }
    }

    /// Per-client delivered bytes and server table occupancy — read at
    /// `data_end`, the end of the data-transfer phase. Pure reads: taking
    /// the measurement perturbs nothing.
    fn measure(&self, spec: &ScenarioSpec) -> Measured {
        let flow_bytes: Vec<u64> = match &spec.protocol {
            ProtocolKind::Tcp(_) => self
                .wiring
                .clients
                .iter()
                .map(|&c| {
                    self.sim
                        .agent::<TcpHost>(c)
                        .expect("host")
                        .total_delivered()
                })
                .collect(),
            ProtocolKind::Dccp(_) => self
                .wiring
                .clients
                .iter()
                .map(|&c| self.sim.agent::<DccpHost>(c).expect("host").total_goodput())
                .collect(),
        };
        let server_sockets = match &spec.protocol {
            ProtocolKind::Tcp(_) => self
                .wiring
                .servers
                .iter()
                .map(|&s| {
                    let census = self.sim.agent::<TcpHost>(s).expect("host").census();
                    census.leaked() + census.count("TIME_WAIT")
                })
                .sum(),
            ProtocolKind::Dccp(_) => self
                .wiring
                .servers
                .iter()
                .map(|&s| {
                    let census = self.sim.agent::<DccpHost>(s).expect("host").census();
                    census.leaked() + census.count("TIMEWAIT")
                })
                .sum(),
        };
        Measured {
            flow_bytes,
            server_sockets,
        }
    }

    /// Schedules the end-of-test control actions at `data_end`: TCP client
    /// processes are killed mid-download; DCCP sending applications close.
    fn schedule_finish(&mut self, spec: &ScenarioSpec, data_end: SimTime) {
        match &spec.protocol {
            ProtocolKind::Tcp(_) => {
                for &client in &self.wiring.clients {
                    self.sim.schedule_control(data_end, client, |agent, ctx| {
                        let any: &mut dyn std::any::Any = agent;
                        any.downcast_mut::<TcpHost>()
                            .expect("tcp host")
                            .abort_all(ctx);
                    });
                }
            }
            ProtocolKind::Dccp(_) => {
                for &server in &self.wiring.servers {
                    self.sim.schedule_control(data_end, server, |agent, ctx| {
                        let any: &mut dyn std::any::Any = agent;
                        any.downcast_mut::<DccpHost>()
                            .expect("dccp host")
                            .close_all(ctx);
                    });
                }
            }
        }
    }

    /// The post-grace socket census and final report assembly.
    fn finish(&self, spec: &ScenarioSpec, measured: Measured) -> TestMetrics {
        let attacked_server = self.wiring.servers[0];
        let (leaked_sockets, leaked_close_wait, leaked_with_queue) = match &spec.protocol {
            ProtocolKind::Tcp(_) => {
                let census = self
                    .sim
                    .agent::<TcpHost>(attacked_server)
                    .expect("host")
                    .census();
                (census.leaked(), census.count("CLOSE_WAIT"), 0)
            }
            ProtocolKind::Dccp(_) => {
                let server = self.sim.agent::<DccpHost>(attacked_server).expect("host");
                let census = server.census();
                let with_queue = server
                    .conn_metrics()
                    .iter()
                    .filter(|m| {
                        m.queue_len > 0
                            && !matches!(m.state.name(), "CLOSED" | "LISTEN" | "TIMEWAIT")
                    })
                    .count();
                (census.leaked(), 0, with_queue)
            }
        };
        let leaked_total: usize = match &spec.protocol {
            ProtocolKind::Tcp(_) => self
                .wiring
                .servers
                .iter()
                .map(|&s| {
                    self.sim
                        .agent::<TcpHost>(s)
                        .expect("host")
                        .census()
                        .leaked()
                })
                .sum(),
            ProtocolKind::Dccp(_) => self
                .wiring
                .servers
                .iter()
                .map(|&s| {
                    self.sim
                        .agent::<DccpHost>(s)
                        .expect("host")
                        .census()
                        .leaked()
                })
                .sum(),
        };
        let proxy = self
            .sim
            .tap::<AttackProxy>(self.wiring.proxy_link)
            .expect("proxy")
            .report()
            .clone();
        TestMetrics {
            target_bytes: measured.flow_bytes.first().copied().unwrap_or(0),
            competing_bytes: measured.flow_bytes.iter().skip(1).sum(),
            leaked_sockets,
            leaked_close_wait,
            leaked_with_queue,
            truncated: self.sim.budget_exhausted(),
            sim_events: self.sim.events_processed(),
            flow_bytes: measured.flow_bytes,
            server_sockets: measured.server_sockets,
            leaked_total,
            proxy: Arc::new(proxy),
        }
    }
}

/// Cap on captured snapshots per plan: each one is a full deep copy of the
/// simulation, so memory bounds the count. Thinning is safe — a strategy
/// just forks from an earlier snapshot and replays a little more prefix.
const MAX_SNAPSHOTS: usize = 64;

/// How a strategy set should be executed against a snapshot plan.
enum ForkDecision {
    /// No rule's trigger key ever occurs in the baseline timeline: the
    /// attack run is event-for-event identical to the baseline (a rule can
    /// only fire once the run has already diverged, and the first
    /// divergence can only come from a rule firing), so the baseline
    /// metrics ARE the run's metrics.
    Elide,
    /// Not fork-eligible: `AtTime` rules arm a timer in the proxy's
    /// `on_start`, and `OnNthPacket` activation times are not in the
    /// timeline. Run from scratch.
    FromScratch,
    /// Forkable; the earliest simulated time any rule could first activate.
    ForkAt(SimTime),
}

/// A paused deep copy of the baseline simulation.
struct Snapshot {
    /// Pause time (one nanosecond before a baseline trigger activation).
    at: SimTime,
    /// The data-phase measurement, carried for snapshots taken at or
    /// after `data_end` — a fork resumed past that point can no longer
    /// observe it.
    measured: Option<Measured>,
    sim: Simulator,
}

struct SnapshotPlan {
    wiring: Wiring,
    /// Ascending by `at`.
    snapshots: Vec<Snapshot>,
}

impl SnapshotPlan {
    /// The latest snapshot strictly before `t` — strictly, so every event
    /// at the activation time itself replays inside the fork.
    fn latest_before(&self, t: SimTime) -> Option<&Snapshot> {
        self.snapshots.iter().rev().find(|s| s.at < t)
    }
}

/// How to execute `rules`, read off pass 1's trigger timeline.
fn decide(timeline: &StateTimeline, rules: &[Strategy]) -> ForkDecision {
    let mut earliest: Option<SimTime> = None;
    for rule in rules {
        let t = match &rule.kind {
            StrategyKind::AtTime { .. } | StrategyKind::OnNthPacket { .. } => {
                return ForkDecision::FromScratch;
            }
            StrategyKind::OnPacket {
                endpoint,
                state,
                packet_type,
                ..
            } => timeline
                .packet_seen(*endpoint, state, packet_type)
                .map(|seen| seen.first_at),
            StrategyKind::OnState {
                endpoint, state, ..
            } => timeline
                .state_seen(*endpoint, state)
                .map(|seen| seen.first_at),
        };
        // A rule whose key is absent from the baseline can never be the
        // first to fire; it does not constrain the fork point.
        if let Some(t) = t {
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        }
    }
    match earliest {
        Some(t) => ForkDecision::ForkAt(t),
        None => ForkDecision::Elide,
    }
}

/// Construction options for [`PlannedExecutor`], replacing the former
/// `new` / `with_options` constructor split with one explicit bundle.
///
/// `Default` gives the plain forking executor: snapshot-fork on,
/// memoization off, and the no-op observer.
#[derive(Clone)]
pub struct ExecutorOptions {
    /// Fork strategies from baseline snapshots; off means every run
    /// executes from scratch. The snapshot plan is built the first time a
    /// run, a memo proof or [`plan_active`](PlannedExecutor::plan_active)
    /// needs it, never by [`PlannedExecutor::new`].
    pub snapshot_fork: bool,
    /// Enables the memoization proofs: static no-op elision
    /// ([`provably_inert`](PlannedExecutor::provably_inert)) and
    /// trigger-class keys ([`class_key`](PlannedExecutor::class_key)).
    /// Both let the campaign substitute the baseline (or a classmate's)
    /// outcome for a run they prove equivalent, and both require the
    /// plan's determinism guard to have passed.
    pub memoize: bool,
    /// Observability sink for phase spans, per-run execution counters and
    /// netsim event-loop stats. The default no-op observer reduces every
    /// hook to a constant-returning virtual call, issued at most a few
    /// times per *run* — never per event or per packet.
    pub observer: Arc<dyn Observer>,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            snapshot_fork: true,
            memoize: false,
            observer: observe::noop(),
        }
    }
}

impl std::fmt::Debug for ExecutorOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorOptions")
            .field("snapshot_fork", &self.snapshot_fork)
            .field("memoize", &self.memoize)
            .field("observer_enabled", &self.observer.enabled())
            .finish()
    }
}

/// How [`PlannedExecutor::run_with_info`] executed a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunInfo {
    /// Answered with the baseline without simulating anything: no rule's
    /// trigger key occurs in the baseline timeline.
    pub elided: bool,
    /// Resumed from a baseline snapshot fork.
    pub forked: bool,
}

/// A scenario executor that runs the no-attack baseline once, snapshots it
/// at every state-transition boundary, and executes each strategy by
/// forking the latest snapshot strictly before the strategy's trigger
/// could first activate — the simulation analogue of the paper's executor
/// "initializing the virtual machines from snapshots" (§V-A), and the
/// reason its campaigns amortize the test prefix instead of replaying it.
///
/// Correctness rests on determinism: a forked run is bit-identical to a
/// from-scratch run of the same strategy because the prefix before the
/// trigger's first possible activation is bit-identical to the baseline.
/// The plan is self-guarding — while capturing snapshots it replays the
/// baseline with extra pauses and compares the final metrics against the
/// uninterrupted run; any difference disables forking entirely, every
/// strategy falls back to from-scratch execution, and the observer counts
/// one `exec.plan.guard_tripped`.
///
/// The plan is built on first need, not by [`new`](PlannedExecutor::new):
/// an executor whose strategies are all answered elsewhere (a resumed
/// campaign's journal) costs one baseline run and no snapshot. Concurrent
/// first users block on one build.
pub struct PlannedExecutor {
    spec: ScenarioSpec,
    baseline: TestMetrics,
    /// Pass 1's trigger timeline: what `decide` and the memo proofs read
    /// (empty when forking is off, since nothing reads it then).
    timeline: StateTimeline,
    /// Pass 2, built once on first need; `None` inside means forking is
    /// off or the determinism guard tripped.
    plan: OnceLock<Option<SnapshotPlan>>,
    /// See [`ExecutorOptions::memoize`].
    memoize: bool,
    observer: Arc<dyn Observer>,
}

impl std::fmt::Debug for PlannedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedExecutor")
            .field("spec", &self.spec)
            .field("plan", &self.plan.get())
            .field("memoize", &self.memoize)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for SnapshotPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPlan")
            .field("snapshots", &self.snapshots.len())
            .finish_non_exhaustive()
    }
}

impl PlannedExecutor {
    /// Runs the baseline, recording the trigger timeline; the snapshot plan
    /// waits for its first use. `memoize` without an intact plan (forking
    /// off, or the determinism guard tripped) is inert — every memo proof
    /// leans on the baseline being reproducible.
    pub fn new(spec: &ScenarioSpec, options: ExecutorOptions) -> PlannedExecutor {
        let ExecutorOptions {
            snapshot_fork,
            memoize,
            observer,
        } = options;
        let data_end = SimTime::from_secs(spec.data_secs);
        let end = SimTime::from_secs(spec.data_secs + spec.grace_secs);
        // Pass 1: the reference baseline, recording the trigger timeline
        // when a plan may later read it.
        let baseline_span = observe::span(observer.as_ref(), "phase.baseline", end.as_nanos());
        let mut session = Session::build(spec, Vec::new(), snapshot_fork);
        session.sim.run_until(data_end);
        let measured = session.measure(spec);
        session.schedule_finish(spec, data_end);
        session.sim.run_until(end);
        let timeline = session
            .sim
            .tap::<AttackProxy>(session.wiring.proxy_link)
            .expect("proxy")
            .timeline()
            .cloned()
            .unwrap_or_default();
        let baseline = session.finish(spec, measured);
        record_sim_stats(observer.as_ref(), &session.sim);
        drop(baseline_span);
        PlannedExecutor {
            spec: spec.clone(),
            baseline,
            timeline,
            // Forking off: the plan is settled as absent from the start.
            plan: if snapshot_fork {
                OnceLock::new()
            } else {
                OnceLock::from(None)
            },
            memoize,
            observer,
        }
    }

    /// The scenario this executor runs.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The no-attack baseline metrics.
    pub fn baseline(&self) -> &TestMetrics {
        &self.baseline
    }

    /// The snapshot plan, built (pass 2 and its determinism guard) by the
    /// first caller; later and concurrent callers share that one build.
    fn plan(&self) -> Option<&SnapshotPlan> {
        self.plan
            .get_or_init(|| {
                let end = SimTime::from_secs(self.spec.data_secs + self.spec.grace_secs);
                let obs = self.observer.as_ref();
                let _span = observe::span(obs, "phase.snapshotting", end.as_nanos());
                build_plan(&self.spec, &self.baseline, &self.timeline, obs)
            })
            .as_ref()
    }

    /// Number of captured fork snapshots (0 means every strategy runs from
    /// scratch). Builds the plan if nothing has yet.
    pub fn snapshot_count(&self) -> usize {
        self.plan().map_or(0, |p| p.snapshots.len())
    }

    /// Whether the snapshot plan is intact — forking is on and the
    /// determinism guard reproduced the baseline bit for bit. Every
    /// memoization proof is conditioned on this. Builds the plan if
    /// nothing has yet.
    pub fn plan_active(&self) -> bool {
        self.plan().is_some()
    }

    /// The header format spec of the protocol under test.
    fn header_spec(&self) -> Arc<FormatSpec> {
        match &self.spec.protocol {
            ProtocolKind::Tcp(_) => TcpAdapter.spec(),
            ProtocolKind::Dccp(_) => DccpAdapter.spec(),
        }
    }

    /// Statically proves a strategy is a wire no-op: an `OnPacket` lie
    /// whose mutation writes back the value the targeted field held in
    /// *every* baseline packet matching the trigger triple. Because the
    /// no-op lie forwards bytes untouched and counts nothing, the run
    /// replays the (reproducible) baseline by induction packet-by-packet —
    /// the constancy observed in the baseline therefore holds in the
    /// attacked run too, and the proof closes. Such strategies can be
    /// answered with the baseline outcome without executing anything.
    pub fn provably_inert(&self, strategy: &Strategy) -> bool {
        if !self.memoize || !self.plan_active() {
            return false;
        }
        let StrategyKind::OnPacket {
            endpoint,
            state,
            packet_type,
            attack: BasicAttack::Lie { field, mutation },
        } = &strategy.kind
        else {
            return false;
        };
        let Some(seen) = self.timeline.packet_seen(*endpoint, state, packet_type) else {
            // Key absent from the baseline: `decide` elides it already.
            return false;
        };
        let spec = self.header_spec();
        let Some(fi) = spec.fields().iter().position(|f| f.name() == *field) else {
            // Unknown field: every application errors out, which the proxy
            // treats as a wire no-op.
            return true;
        };
        let Some((_, fref)) = spec.field_at(fi) else {
            return false;
        };
        match seen.fields.get(fi) {
            Some(Some(v)) => lie_is_inert(*mutation, *v, fref.max_value()),
            _ => false,
        }
    }

    /// A memo-class key for trigger-equivalent `OnState` strategies: two
    /// strategies with the same key start the same canonical injection at
    /// the same first-visibility instant of the same baseline run, and an
    /// `OnState` rule is never consulted again after it starts — so their
    /// runs are identical and one execution serves the whole class.
    pub fn class_key(&self, strategy: &Strategy) -> Option<String> {
        if !self.memoize || !self.plan_active() {
            return None;
        }
        let StrategyKind::OnState {
            endpoint,
            state,
            attack,
        } = &strategy.kind
        else {
            return None;
        };
        let seen = self.timeline.state_seen(*endpoint, state)?;
        Some(format!(
            "{}@{}:{}",
            seen.first_at.as_nanos(),
            seen.first_index,
            attack.to_json().to_string_compact()
        ))
    }

    /// Runs one strategy (or the baseline when `None`).
    pub fn run(&self, strategy: Option<Strategy>) -> TestMetrics {
        self.run_combination(strategy.into_iter().collect())
    }

    /// Like [`run`](PlannedExecutor::run), also reporting how the run was
    /// executed.
    pub fn run_with_info(&self, strategy: Option<Strategy>) -> (TestMetrics, RunInfo) {
        self.run_combination_with_info(strategy.into_iter().collect())
    }

    /// Runs a combination strategy, forking a baseline snapshot when every
    /// rule is fork-eligible.
    pub fn run_combination(&self, rules: Vec<Strategy>) -> TestMetrics {
        self.run_combination_with_info(rules).0
    }

    /// Like [`run_combination`](PlannedExecutor::run_combination), also
    /// reporting how the run was executed.
    pub fn run_combination_with_info(&self, rules: Vec<Strategy>) -> (TestMetrics, RunInfo) {
        let obs = self.observer.as_ref();
        let Some(plan) = self.plan() else {
            obs.counter_add("exec.runs.from_scratch", 1);
            return (run_full(&self.spec, rules, obs), RunInfo::default());
        };
        match decide(&self.timeline, &rules) {
            ForkDecision::Elide => {
                obs.counter_add("exec.runs.elided", 1);
                (
                    self.baseline.clone(),
                    RunInfo {
                        elided: true,
                        ..RunInfo::default()
                    },
                )
            }
            ForkDecision::FromScratch => {
                obs.counter_add("exec.runs.from_scratch", 1);
                (run_full(&self.spec, rules, obs), RunInfo::default())
            }
            ForkDecision::ForkAt(t) => {
                let forked = plan
                    .latest_before(t)
                    .and_then(|snap| snap.sim.fork().map(|sim| (snap, sim)));
                match forked {
                    Some((snap, sim)) => {
                        obs.counter_add("exec.runs.forked", 1);
                        obs.counter_add("netsim.forks", 1);
                        if obs.enabled() {
                            obs.counter_add(
                                "netsim.fork_clone_bytes",
                                snap.sim.approx_clone_bytes(),
                            );
                        }
                        (
                            self.resume(plan, snap, sim, rules),
                            RunInfo {
                                forked: true,
                                ..RunInfo::default()
                            },
                        )
                    }
                    // No snapshot precedes the trigger (or an agent turned
                    // out not to be forkable): run the whole thing.
                    None => {
                        obs.counter_add("exec.runs.from_scratch", 1);
                        (run_full(&self.spec, rules, obs), RunInfo::default())
                    }
                }
            }
        }
    }

    /// Continues a forked snapshot to the end of the scenario with the
    /// strategy's rules armed.
    fn resume(
        &self,
        plan: &SnapshotPlan,
        snap: &Snapshot,
        sim: Simulator,
        rules: Vec<Strategy>,
    ) -> TestMetrics {
        let spec = &self.spec;
        let data_end = SimTime::from_secs(spec.data_secs);
        let end = SimTime::from_secs(spec.data_secs + spec.grace_secs);
        let mut session = Session {
            sim,
            wiring: plan.wiring.clone(),
        };
        session
            .sim
            .tap_mut::<AttackProxy>(plan.wiring.proxy_link)
            .expect("proxy")
            .install_rules(rules);
        let measured = match &snap.measured {
            // The fork point is past data_end, so the data phase was
            // attack-free and its measurement is the carried baseline one.
            Some(m) => {
                session.sim.run_until(end);
                m.clone()
            }
            None => {
                session.sim.run_until(data_end);
                let m = session.measure(spec);
                session.schedule_finish(spec, data_end);
                session.sim.run_until(end);
                m
            }
        };
        let metrics = session.finish(spec, measured);
        record_sim_stats(self.observer.as_ref(), &session.sim);
        metrics
    }
}

/// Pass 2 of plan construction: replay the baseline, pausing one simulated
/// nanosecond before each first trigger activation observed in pass 1 and
/// forking a snapshot there. Returns `None` (disabling forked execution
/// and every memo proof) if anything in the simulation refuses to fork or
/// the paused replay fails to reproduce the reference baseline bit for
/// bit; either way the observer counts one `exec.plan.guard_tripped`.
fn build_plan(
    spec: &ScenarioSpec,
    baseline: &TestMetrics,
    timeline: &StateTimeline,
    observer: &dyn Observer,
) -> Option<SnapshotPlan> {
    let tripped = || {
        observer.counter_add("exec.plan.guard_tripped", 1);
        None
    };
    let data_end = SimTime::from_secs(spec.data_secs);
    let end = SimTime::from_secs(spec.data_secs + spec.grace_secs);
    let mut times: Vec<SimTime> = timeline
        .states
        .values()
        .map(|seen| seen.first_at)
        .chain(timeline.packets.values().map(|seen| seen.first_at))
        .filter(|t| t.as_nanos() > 0 && *t < end)
        .map(|t| SimTime::from_nanos(t.as_nanos() - 1))
        .collect();
    times.sort_unstable();
    times.dedup();
    if times.len() > MAX_SNAPSHOTS {
        let step = times.len().div_ceil(MAX_SNAPSHOTS);
        times = times.into_iter().step_by(step).collect();
    }

    let mut session = Session::build(spec, Vec::new(), false);
    let mut snapshots = Vec::with_capacity(times.len());
    let mut measured: Option<Measured> = None;
    for t in times {
        if measured.is_none() && t >= data_end {
            session.sim.run_until(data_end);
            measured = Some(session.measure(spec));
            session.schedule_finish(spec, data_end);
        }
        session.sim.run_until(t);
        let Some(sim) = session.sim.fork() else {
            return tripped();
        };
        observer.counter_add("netsim.snapshot_forks", 1);
        if observer.enabled() {
            observer.counter_add(
                "netsim.snapshot_clone_bytes",
                session.sim.approx_clone_bytes(),
            );
        }
        snapshots.push(Snapshot {
            at: t,
            measured: measured.clone(),
            sim,
        });
    }
    if measured.is_none() {
        session.sim.run_until(data_end);
        measured = Some(session.measure(spec));
        session.schedule_finish(spec, data_end);
    }
    session.sim.run_until(end);
    let replay = session.finish(spec, measured.expect("measured above"));
    record_sim_stats(observer, &session.sim);
    if replay != *baseline {
        return tripped();
    }
    Some(SnapshotPlan {
        wiring: session.wiring,
        snapshots,
    })
}

/// Whether applying `mutation` to a field currently holding `value` (with
/// representable maximum `max`) writes back `value` — i.e. the lie cannot
/// change any wire byte. Mirrors [`FieldMutation::apply`] exactly, including
/// its error cases: a mutation that fails to apply (out-of-range `Set`,
/// division by zero) is forwarded unmodified by the proxy, so it is inert
/// too. `Random` consumes entropy and is never statically classifiable.
fn lie_is_inert(mutation: FieldMutation, value: u64, max: u64) -> bool {
    match mutation {
        FieldMutation::Set(x) => x > max || x == value,
        FieldMutation::Min => value == 0,
        FieldMutation::Max => value == max,
        FieldMutation::Add(k) => value.wrapping_add(k) & max == value,
        FieldMutation::Sub(k) => value.wrapping_sub(k) & max == value,
        FieldMutation::Mul(k) => value.wrapping_mul(k) & max == value,
        FieldMutation::Div(k) => k == 0 || value / k == value,
        // `Random` (and any future variant) consumes RNG state or has
        // unknown semantics: never provably inert.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_baseline_is_clean_and_fair() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let m = Executor::run(&spec, None);
        assert!(m.target_bytes > 1_000_000, "{m:?}");
        assert!(m.competing_bytes > 1_000_000);
        let ratio = m.target_bytes.max(m.competing_bytes) as f64
            / m.target_bytes.min(m.competing_bytes) as f64;
        assert!(ratio < 2.0, "baseline unfair: {ratio}");
        assert_eq!(m.leaked_sockets, 0, "{m:?}");
        assert!(m.proxy.packets_seen > 500);
    }

    #[test]
    fn dccp_baseline_is_clean_and_fair() {
        let spec = ScenarioSpec::quick(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
        let m = Executor::run(&spec, None);
        assert!(m.target_bytes > 1_000_000, "{m:?}");
        let ratio = m.target_bytes.max(m.competing_bytes) as f64
            / m.target_bytes.min(m.competing_bytes) as f64;
        assert!(ratio < 2.0, "baseline unfair: {ratio}");
        assert_eq!(m.leaked_sockets, 0, "{m:?}");
    }

    #[test]
    fn identical_seeds_identical_metrics() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_0_0()));
        let a = Executor::run(&spec, None);
        let b = Executor::run(&spec, None);
        assert_eq!(a, b, "executor must be deterministic");
    }

    #[test]
    fn budgeted_run_truncates_deterministically() {
        let spec =
            ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13())).with_event_budget(20_000);
        let a = Executor::run(&spec, None);
        assert!(a.truncated, "20k events cannot finish a quick scenario");
        assert_eq!(
            a,
            Executor::run(&spec, None),
            "truncation must be deterministic"
        );
        // A generous budget does not disturb the run at all.
        let free = ScenarioSpec {
            event_budget: None,
            ..spec.clone()
        };
        let capped = ScenarioSpec {
            event_budget: Some(u64::MAX),
            ..spec
        };
        assert_eq!(Executor::run(&free, None), Executor::run(&capped, None));
    }

    #[test]
    fn impaired_scenario_is_deterministic_and_still_moves_data() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()))
            .with_impairment(Impairment::preset("lossy").expect("built-in preset"));
        let a = Executor::run(&spec, None);
        let b = Executor::run(&spec, None);
        assert_eq!(a, b, "impairment draws must be seed-deterministic");
        assert!(
            a.target_bytes > 500_000,
            "a lossy bottleneck degrades but must not kill the transfer: {a:?}"
        );
    }

    #[test]
    fn different_seed_changes_details_not_shape() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let a = Executor::run(&spec, None);
        let spec2 = ScenarioSpec { seed: 99, ..spec };
        let b = Executor::run(&spec2, None);
        assert!(b.target_bytes > 1_000_000);
        // Shape holds: both clean, same order of magnitude.
        assert_eq!(b.leaked_sockets, 0);
        let ratio = a.target_bytes as f64 / b.target_bytes as f64;
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "{} vs {}",
            a.target_bytes,
            b.target_bytes
        );
    }

    #[test]
    fn presets_are_thin_wrappers_over_the_builder() {
        let p = || ProtocolKind::Tcp(Profile::linux_3_13());
        assert_eq!(
            ScenarioSpec::evaluation(p()),
            ScenarioSpec::builder(p()).build().unwrap()
        );
        assert_eq!(
            ScenarioSpec::quick(p()),
            ScenarioSpec::builder(p()).quick().build().unwrap()
        );
    }

    #[test]
    fn builder_rejects_degenerate_settings() {
        let b = || ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13())).quick();
        let attacked = |count| FlowGroup {
            role: FlowRole::Attacked,
            count,
        };
        let detail = |r: Result<ScenarioSpec, ScenarioError>| match r {
            Err(ScenarioError::InvalidConfig { detail }) => detail,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert!(detail(b().data_secs(0).build()).contains("data phase"));
        assert!(detail(b().target_connections(0).build()).contains("target connection"));
        let good = *ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13())).bottleneck();
        let dead = LinkSpec {
            bandwidth_bps: 0,
            ..good
        };
        assert!(detail(b().bottleneck(dead).build()).contains("bandwidth"));
        let clogged = LinkSpec {
            queue_packets: 0,
            ..good
        };
        assert!(detail(b().access(clogged).build()).contains("queue"));
        // Topology/flow cross-requirements.
        assert!(detail(b().flows(vec![attacked(1)]).build()).contains("generated topology"));
        assert!(detail(b().topology(TopologyKind::Star, 64).build()).contains("flow mix"));
        assert!(
            detail(b().topology(TopologyKind::Star, 64).flows(vec![]).build())
                .contains("at least one group")
        );
        assert!(detail(
            b().topology(TopologyKind::Star, 64)
                .flows(vec![attacked(0)])
                .build()
        )
        .contains("must be positive"));
        assert!(detail(
            b().topology(TopologyKind::Star, 64)
                .flows(vec![FlowGroup {
                    role: FlowRole::Bulk,
                    count: 1
                }])
                .build()
        )
        .contains("exactly one attacked"));
        assert!(detail(
            b().topology(TopologyKind::Star, 64)
                .flows(vec![attacked(1), attacked(2)])
                .build()
        )
        .contains("more than one attacked"));
        // The realizability dry-run surfaces the generator's own errors.
        assert!(detail(
            b().topology(TopologyKind::Star, 2)
                .flows(vec![attacked(1)])
                .build()
        )
        .contains("at least 4 hosts"));
        // Display carries the InvalidConfig shape.
        let err = b().data_secs(0).build().unwrap_err();
        assert!(err.to_string().starts_with("invalid scenario:"), "{err}");
    }

    #[test]
    fn classic_dumbbell_is_bit_identical_through_the_builder() {
        // The pre-redesign representation, constructed literally — the
        // builder must reproduce it field for field, and the executor must
        // produce bit-identical metrics from either.
        let legacy = ScenarioSpec {
            protocol: ProtocolKind::Tcp(Profile::linux_3_0_0()),
            topology: TopologySpec::Dumbbell(DumbbellSpec::evaluation_default()),
            flows: None,
            data_secs: 6,
            grace_secs: 35,
            seed: 7,
            target_connections: 1,
            event_budget: None,
        };
        let built = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_0_0()))
            .quick()
            .build()
            .unwrap();
        assert_eq!(legacy, built);
        assert_eq!(Executor::run(&legacy, None), Executor::run(&built, None));
    }

    #[test]
    fn multiflow_run_is_deterministic_and_reports_per_flow_bytes() {
        let spec = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
            .data_secs(4)
            .grace_secs(10)
            .topology(TopologyKind::Star, 12)
            .flows(vec![
                FlowGroup {
                    role: FlowRole::Attacked,
                    count: 2,
                },
                FlowGroup {
                    role: FlowRole::Bulk,
                    count: 2,
                },
                FlowGroup {
                    role: FlowRole::RequestResponse,
                    count: 2,
                },
                FlowGroup {
                    role: FlowRole::SynPressure,
                    count: 2,
                },
            ])
            .build()
            .unwrap();
        assert_eq!(
            spec.target_connections(),
            2,
            "attacked group sets the count"
        );
        let a = Executor::run(&spec, None);
        let b = Executor::run(&spec, None);
        assert_eq!(a, b, "multi-flow executor must be deterministic");
        // 12 hosts split 1 server / 11 clients; flow_bytes is per client.
        assert_eq!(a.flow_bytes.len(), 11, "{:?}", a.flow_bytes);
        assert!(a.flow_bytes[0] > 0, "attacked client moved no data");
        let total: u64 = a.flow_bytes.iter().sum();
        assert!(total > a.flow_bytes[0], "background flows moved no data");
        assert!(a.jain_index() > 0.0 && a.jain_index() <= 1.0);
        assert_eq!(a.leaked_total, 0, "clean run must not leak");
    }

    #[test]
    fn reseeding_preserves_the_generated_layout() {
        let build = |seed| {
            ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
                .quick()
                .seed(seed)
                .topology(TopologyKind::Tree, 32)
                .flows(vec![FlowGroup {
                    role: FlowRole::Attacked,
                    count: 1,
                }])
                .build()
                .unwrap()
        };
        let spec = build(5);
        let reseeded = spec.clone().with_seed(99);
        // The layout seed was bound at build time: reseeding varies only
        // traffic, so ensemble members all measure the same network.
        assert_eq!(spec.topology(), reseeded.topology());
        assert_eq!(reseeded.seed(), 99);
        // A different build-time seed genuinely moves the hosts.
        assert_ne!(spec.topology(), build(6).topology());
    }

    #[test]
    fn digest_moves_with_every_verdict_relevant_knob() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let base = scenario_digest(&spec, 0.5, 1);
        assert_eq!(base, scenario_digest(&spec.clone(), 0.5, 1), "stable");
        assert_ne!(base, scenario_digest(&spec, 0.4, 1), "threshold");
        assert_ne!(base, scenario_digest(&spec, 0.5, 3), "baseline reps");
        let mut other = spec.clone();
        other.seed += 1;
        assert_ne!(base, scenario_digest(&other, 0.5, 1), "seed");
        let impaired = spec
            .clone()
            .with_impairment(Impairment::preset("lossy").unwrap());
        assert_ne!(base, scenario_digest(&impaired, 0.5, 1), "impairment");
        let mut shorter = spec;
        shorter.data_secs -= 1;
        assert_ne!(base, scenario_digest(&shorter, 0.5, 1), "workload");
    }

    fn recorded_executor(spec: &ScenarioSpec) -> (PlannedExecutor, Arc<observe::Recorder>) {
        let recorder = Arc::new(observe::Recorder::new());
        let options = ExecutorOptions {
            observer: recorder.clone(),
            ..ExecutorOptions::default()
        };
        (PlannedExecutor::new(spec, options), recorder)
    }

    fn span_count(recorder: &observe::Recorder, name: &str) -> u64 {
        recorder
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .count() as u64
    }

    #[test]
    fn racing_first_forked_runs_share_one_plan_build() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let (exec, recorder) = recorded_executor(&spec);
        assert_eq!(
            span_count(&recorder, "phase.snapshotting"),
            0,
            "built lazily"
        );
        let strategy = Strategy {
            id: 0,
            kind: StrategyKind::OnPacket {
                endpoint: snake_proxy::Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        let barrier = std::sync::Barrier::new(4);
        let runs: Vec<(TestMetrics, RunInfo)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        exec.run_with_info(Some(strategy.clone()))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (metrics, info) in &runs {
            assert!(info.forked, "{info:?}");
            assert_eq!(metrics, &runs[0].0);
        }
        assert_eq!(span_count(&recorder, "phase.snapshotting"), 1);
        assert!(exec.snapshot_count() > 0);
        assert_eq!(runs[0].0, Executor::run(&spec, Some(strategy)));
    }

    #[test]
    fn a_baseline_the_replay_cannot_match_trips_the_guard_and_counts_it() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let (exec, recorder) = recorded_executor(&spec);
        let guard = || recorder.snapshot().counter("exec.plan.guard_tripped");
        let obs = recorder.as_ref();
        assert!(build_plan(&spec, &exec.baseline, &exec.timeline, obs).is_some());
        assert_eq!(guard(), 0);
        let mut off_by_one = exec.baseline.clone();
        off_by_one.target_bytes += 1;
        assert!(build_plan(&spec, &off_by_one, &exec.timeline, obs).is_none());
        assert_eq!(guard(), 1);
    }
}
