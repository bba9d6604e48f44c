//! One from-scratch run of a scenario: the built simulation, its
//! measurement phases, and the metrics an executor reports.

use std::sync::Arc;

use snake_dccp::{DccpHost, DccpServerApp};
use snake_netsim::{Addr, Dumbbell, LinkId, NodeId, SimTime, Simulator, TopologyGen};
use snake_observe::{NullObserver, Observer};
use snake_proxy::{AttackProxy, DccpAdapter, ProxyConfig, ProxyReport, Strategy, TcpAdapter};
use snake_tcp::{ServerApp, TcpHost};

use super::{FlowRole, ProtocolKind, ScenarioSpec, TopologySpec};

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
pub(super) fn run_full(
    spec: &ScenarioSpec,
    rules: Vec<Strategy>,
    observer: &dyn Observer,
) -> TestMetrics {
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
pub(super) fn record_sim_stats(observer: &dyn Observer, sim: &Simulator) {
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
pub(super) struct Wiring {
    pub(super) proxy_link: LinkId,
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
pub(super) struct Measured {
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
pub(super) struct Session {
    pub(super) sim: Simulator,
    pub(super) wiring: Wiring,
}

impl Session {
    pub(super) fn build(
        spec: &ScenarioSpec,
        rules: Vec<Strategy>,
        record_timeline: bool,
    ) -> Session {
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
                    TopologyGen::generate(g).expect("`ScenarioSpec::validate` generated it");
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
        let config = proxy_config(&wiring, spec);
        let mut proxy = match &spec.protocol {
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
                AttackProxy::with_rules(TcpAdapter, config, rules)
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
                AttackProxy::with_rules(DccpAdapter, config, rules)
            }
        };
        if record_timeline {
            proxy.record_timeline();
        }
        sim.attach_tap(wiring.proxy_link, proxy);
        Session { sim, wiring }
    }

    /// Per-client delivered bytes and server table occupancy — read at
    /// `data_end`, the end of the data-transfer phase. Pure reads: taking
    /// the measurement perturbs nothing.
    pub(super) fn measure(&self, spec: &ScenarioSpec) -> Measured {
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
        let server_sockets = self
            .wiring
            .servers
            .iter()
            .map(|&s| {
                let (leaked, time_wait) = self.census(spec, s);
                leaked + time_wait
            })
            .sum();
        Measured {
            flow_bytes,
            server_sockets,
        }
    }

    /// One server's `(leaked, TIME_WAIT)` socket counts.
    fn census(&self, spec: &ScenarioSpec, server: NodeId) -> (usize, usize) {
        match &spec.protocol {
            ProtocolKind::Tcp(_) => {
                let census = self.sim.agent::<TcpHost>(server).expect("host").census();
                (census.leaked(), census.count("TIME_WAIT"))
            }
            ProtocolKind::Dccp(_) => {
                let census = self.sim.agent::<DccpHost>(server).expect("host").census();
                (census.leaked(), census.count("TIMEWAIT"))
            }
        }
    }

    /// Schedules the end-of-test control actions at `data_end`: TCP client
    /// processes are killed mid-download; DCCP sending applications close.
    pub(super) fn schedule_finish(&mut self, spec: &ScenarioSpec, data_end: SimTime) {
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
    pub(super) fn finish(&self, spec: &ScenarioSpec, measured: Measured) -> TestMetrics {
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
        let leaked_total = self
            .wiring
            .servers
            .iter()
            .map(|&s| self.census(spec, s).0)
            .sum();
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
