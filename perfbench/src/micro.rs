//! Per-layer microbenchmarks: the bench drives each layer's public API in
//! a loop and reports the cost of one operation as the median over a few
//! batches. Nothing here depends on the workload; the per-layer run of
//! every workload carries the same figures, so a layer's cost can be
//! multiplied by that workload's counts.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snake_core::journal::{self, JournalHeader, JournalWriter};
use snake_core::{detect_enveloped, Envelope, StrategyOutcome, TestMetrics, DEFAULT_THRESHOLD};
use snake_dccp::{DccpConnEvent, DccpConnection, DccpProfile, DccpSeg, DccpState};
use snake_json::ToJson;
use snake_netsim::{
    Addr, Agent, Ctx, Dumbbell, DumbbellSpec, Impairment, LinkSpec, NodeId, Packet, Protocol,
    SimDuration, SimTime, Simulator, TimerHandle, TopologyGen, TopologyGenSpec, TopologyKind,
};
use snake_packet::dccp::{DccpBuilder, DccpPacketType, DccpView};
use snake_packet::tcp::{tcp_spec, TcpBuilder, TcpFlags, TcpPacketType, TcpView};
use snake_packet::FieldMutation;
use snake_proxy::{
    AttackProxy, BasicAttack, Endpoint, ProxyConfig, Strategy, StrategyKind, TcpAdapter,
};
use snake_statemachine::{tcp_state_machine, Dir, PairTracker};
use snake_tcp::{ConnEvent, Connection, Profile, Seg, ServerApp, State, TcpHost};

use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Sizing;

/// Runs `batch` `sizing.micro_batches` times under a span named `span`;
/// each call returns the operations it performed and the time they took.
/// Returns the median cost of one operation in nanoseconds.
fn ns_per_op(
    tracer: &Tracer,
    sizing: &Sizing,
    span: &'static str,
    mut batch: impl FnMut() -> (u64, Duration),
) -> f64 {
    let samples: Vec<f64> = (0..sizing.micro_batches)
        .map(|_| {
            let _span = tracer.span(span);
            let (ops, elapsed) = batch();
            assert!(ops > 0, "{span}: a batch must perform work");
            elapsed.as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn timed<R>(work: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = work();
    (result, start.elapsed())
}

fn iters(base: u64, sizing: &Sizing) -> u64 {
    (base / sizing.micro_shrink).max(1)
}

// ---------------------------------------------------------------------
// packet
// ---------------------------------------------------------------------

fn packet(tracer: &Tracer, sizing: &Sizing, out: &mut Vec<Metric>) {
    let spec = tcp_spec();
    let refs: Vec<_> = (0..spec.field_count())
        .map(|i| spec.field_at(i).expect("field index in range").1)
        .collect();
    let mut buf = TcpBuilder::new(40_000, 80)
        .seq(0x1234_5678)
        .ack(0x9abc_def0)
        .flags(TcpFlags::SYN_ACK)
        .build()
        .into_bytes();
    let rounds = iters(20_000, sizing);

    let get = ns_per_op(tracer, sizing, "packet.get", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..rounds {
                for field in &refs {
                    black_box(spec.get(black_box(&buf), *field).expect("full header"));
                }
            }
        });
        (rounds * refs.len() as u64, elapsed)
    });
    out.push(Metric::new("packet.get_ns", get, "ns"));

    let set = ns_per_op(tracer, sizing, "packet.set", || {
        let ((), elapsed) = timed(|| {
            for round in 0..rounds {
                for field in &refs {
                    spec.set(&mut buf, *field, round & field.max_value())
                        .expect("value masked to the field");
                }
            }
            black_box(&buf);
        });
        (rounds * refs.len() as u64, elapsed)
    });
    out.push(Metric::new("packet.set_ns", set, "ns"));

    let ops = iters(200_000, sizing);
    let tcp_build = ns_per_op(tracer, sizing, "packet.tcp_build", || {
        let ((), elapsed) = timed(|| {
            for i in 0..ops {
                let header = TcpBuilder::new(40_000, 80)
                    .seq(i as u32)
                    .ack(!i as u32)
                    .flags(TcpFlags::SYN_ACK)
                    .build();
                black_box(header);
            }
        });
        (ops, elapsed)
    });
    out.push(Metric::new("packet.tcp_build_ns", tcp_build, "ns"));

    let tcp_bytes = TcpBuilder::new(40_000, 80)
        .seq(7)
        .ack(9)
        .build()
        .into_bytes();
    let tcp_view = ns_per_op(tracer, sizing, "packet.tcp_view", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..ops {
                let view = TcpView::new(black_box(&tcp_bytes)).expect("full header");
                black_box((view.seq(), view.ack(), view.flags(), view.window()));
            }
        });
        (ops, elapsed)
    });
    out.push(Metric::new("packet.tcp_view_ns", tcp_view, "ns"));

    let dccp_build = ns_per_op(tracer, sizing, "packet.dccp_build", || {
        let ((), elapsed) = timed(|| {
            for i in 0..ops {
                let header = DccpBuilder::new(40_000, 5_001, DccpPacketType::DataAck)
                    .seq(i)
                    .ack(!i)
                    .build();
                black_box(header);
            }
        });
        (ops, elapsed)
    });
    out.push(Metric::new("packet.dccp_build_ns", dccp_build, "ns"));

    let dccp_bytes = DccpBuilder::new(40_000, 5_001, DccpPacketType::DataAck)
        .seq(7)
        .ack(9)
        .build()
        .into_bytes();
    let dccp_view = ns_per_op(tracer, sizing, "packet.dccp_view", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..ops {
                let view = DccpView::new(black_box(&dccp_bytes)).expect("full header");
                black_box((view.seq(), view.ack(), view.packet_type()));
            }
        });
        (ops, elapsed)
    });
    out.push(Metric::new("packet.dccp_view_ns", dccp_view, "ns"));

    let names: Vec<&str> = spec
        .fields()
        .iter()
        .filter(|f| !f.is_flag())
        .map(|f| f.name())
        .collect();
    let mutations = FieldMutation::standard_mutations();
    let mut header = spec.parse(tcp_bytes.clone()).expect("full header");
    let mut rng = SmallRng::seed_from_u64(7);
    let rounds = iters(4_000, sizing);
    let mutate = ns_per_op(tracer, sizing, "packet.mutate", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..rounds {
                for name in &names {
                    for mutation in mutations {
                        mutation
                            .apply(&mut header, name, &mut rng)
                            .expect("standard mutations fit every field");
                    }
                }
            }
            black_box(&header);
        });
        (rounds * (names.len() * mutations.len()) as u64, elapsed)
    });
    out.push(Metric::new("packet.mutate_ns", mutate, "ns"));
}

// ---------------------------------------------------------------------
// statemachine
// ---------------------------------------------------------------------

fn statemachine(tracer: &Tracer, sizing: &Sizing, out: &mut Vec<Metric>) {
    let machine = tcp_state_machine();
    let states: Vec<_> = machine
        .states()
        .iter()
        .map(|name| machine.state(name).expect("listed state"))
        .collect();
    let labels: Vec<&str> = TcpPacketType::all().iter().map(|t| t.label()).collect();
    let rounds = iters(2_000, sizing);
    let step = ns_per_op(tracer, sizing, "statemachine.step", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..rounds {
                for state in &states {
                    for label in &labels {
                        black_box(machine.step(*state, Dir::Send, label));
                        black_box(machine.step(*state, Dir::Recv, label));
                    }
                }
            }
        });
        (rounds * (states.len() * labels.len() * 2) as u64, elapsed)
    });
    out.push(Metric::new("statemachine.step_ns", step, "ns"));

    // Handshake, a data exchange, teardown — the type sequence the proxy
    // feeds its tracker on every connection.
    let mut script: Vec<(bool, &str)> = vec![(true, "SYN"), (false, "SYN+ACK"), (true, "ACK")];
    for _ in 0..24 {
        script.push((false, "DATA"));
        script.push((true, "ACK"));
    }
    script.extend([
        (false, "PSH+ACK"),
        (true, "ACK"),
        (true, "FIN+ACK"),
        (false, "ACK"),
        (false, "FIN+ACK"),
        (true, "ACK"),
    ]);
    let rounds = iters(4_000, sizing);
    let observe = ns_per_op(tracer, sizing, "statemachine.observe", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..rounds {
                let mut pair = PairTracker::new(Arc::clone(&machine), "CLOSED", "LISTEN")
                    .expect("built-in machine has both states");
                for (i, (from_client, label)) in script.iter().enumerate() {
                    pair.observe_packet(*from_client, label, i as u64 * 1_000);
                }
                black_box(pair);
            }
        });
        (rounds * script.len() as u64, elapsed)
    });
    out.push(Metric::new("statemachine.observe_ns", observe, "ns"));
}

// ---------------------------------------------------------------------
// netsim
// ---------------------------------------------------------------------

/// Re-arms one timer per fired timer; in `cancel` mode it additionally
/// arms a far timer per fire and cancels the previous one.
#[derive(Debug)]
struct TimerLoop {
    fired: u64,
    cancel: bool,
    far: Option<TimerHandle>,
}

impl Agent for TimerLoop {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..64 {
            ctx.set_timer(SimDuration::from_micros(10 + i), 0);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.fired += 1;
        ctx.set_timer(SimDuration::from_micros(100 + self.fired % 64), 0);
        if self.cancel {
            let far = ctx.set_timer(SimDuration::from_millis(50), 1);
            if let Some(previous) = self.far.replace(far) {
                ctx.cancel_timer(previous);
            }
        }
    }
}

fn timer_loop(cancel: bool, sizing: &Sizing) -> (u64, Duration) {
    let mut sim = Simulator::new(7);
    let node = sim.add_node("timers");
    sim.set_agent(
        node,
        TimerLoop {
            fired: 0,
            cancel,
            far: None,
        },
    );
    let until = SimTime::from_micros(iters(300_000, sizing));
    let ((), elapsed) = timed(|| sim.run_until(until));
    let fired = sim.agent::<TimerLoop>(node).expect("agent installed").fired;
    (fired, elapsed)
}

/// Sends a burst of packets to `peer` on every timer tick.
#[derive(Debug)]
struct Source {
    peer: NodeId,
}

/// Counts what arrives.
#[derive(Debug, Default)]
struct Sink {
    delivered: u64,
}

const BURST: u32 = 8;

impl Agent for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_micros(100), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        for _ in 0..BURST {
            let packet = Packet::new(
                ctx.addr(7),
                Addr::new(self.peer, 7),
                Protocol::Other(99),
                vec![0u8; 8],
                1_000,
            );
            ctx.send(packet);
        }
        ctx.set_timer(SimDuration::from_micros(100), 0);
    }
}

impl Agent for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
        self.delivered += 1;
    }
}

/// A two-node stream over one link (a stream rather than a ping-pong, so
/// the impaired variant's losses cannot drain the loop). The cost per
/// delivered packet includes one eighth of a timer.
fn link_stream(impair: Impairment, sizing: &Sizing) -> (u64, Duration) {
    let mut sim = Simulator::new(7);
    let a = sim.add_node("source");
    let b = sim.add_node("sink");
    sim.set_agent(a, Source { peer: b });
    sim.set_agent(b, Sink::default());
    let link =
        LinkSpec::new(1_000_000_000, SimDuration::from_millis(1), 256).with_impairment(impair);
    sim.add_link(a, b, link);
    let until = SimTime::from_micros(iters(2_000_000, sizing));
    let ((), elapsed) = timed(|| sim.run_until(until));
    let delivered = sim.agent::<Sink>(b).expect("agent installed").delivered;
    (delivered, elapsed)
}

fn proxy_config(client: NodeId, server: NodeId) -> ProxyConfig {
    ProxyConfig {
        client_node: client,
        client_is_a: true,
        server: Addr::new(server, 80),
        client_port_guess: 40_000,
        seed: 7 ^ 0x5A5A,
    }
}

fn tcp_server() -> TcpHost {
    let mut host = TcpHost::new(Profile::linux_3_13());
    host.listen(80, ServerApp::bulk_sender(u64::MAX));
    host
}

/// The evaluation dumbbell with four TCP hosts and an observing proxy,
/// paused mid-transfer.
fn dumbbell_mid_transfer() -> Simulator {
    let mut sim = Simulator::new(7);
    let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
    for (client, server) in [(d.client1, d.server1), (d.client2, d.server2)] {
        sim.set_agent(server, tcp_server());
        let mut host = TcpHost::new(Profile::linux_3_13());
        host.connect_at(SimTime::ZERO, Addr::new(server, 80));
        sim.set_agent(client, host);
    }
    let proxy = AttackProxy::new(TcpAdapter, proxy_config(d.client1, d.server1), None);
    sim.attach_tap(d.proxy_link, proxy);
    sim.run_until(SimTime::from_secs(3));
    sim
}

fn star64_spec() -> TopologyGenSpec {
    let links = DumbbellSpec::evaluation_default();
    TopologyGenSpec {
        kind: TopologyKind::Star,
        hosts: 64,
        seed: 7,
        bottleneck: links.bottleneck,
        access: links.access,
    }
}

/// A 64-host star, every client downloading from a server, paused
/// mid-transfer.
fn star64_mid_transfer() -> Simulator {
    let mut sim = Simulator::new(7);
    let layout = TopologyGen::generate(&star64_spec()).expect("valid star");
    let built = layout.build(&mut sim);
    for &server in &built.servers {
        sim.set_agent(server, tcp_server());
    }
    for (i, &client) in built.clients.iter().enumerate() {
        let mut host = TcpHost::new(Profile::linux_3_13());
        let server = built.servers[i % built.servers.len()];
        host.connect_at(SimTime::from_millis(10 * i as u64), Addr::new(server, 80));
        sim.set_agent(client, host);
    }
    let proxy = AttackProxy::new(
        TcpAdapter,
        proxy_config(built.clients[0], built.servers[0]),
        None,
    );
    sim.attach_tap(built.proxy_link, proxy);
    sim.run_until(SimTime::from_secs(1));
    sim
}

/// `(µs to fork and drop one copy, bytes the fork clones)`. The copy is
/// dropped inside the timed loop — a campaign run pays for both.
fn fork_cost(tracer: &Tracer, sizing: &Sizing, span: &'static str, sim: &Simulator) -> (f64, f64) {
    let forks = iters(400, sizing);
    let ns = ns_per_op(tracer, sizing, span, || {
        let ((), elapsed) = timed(|| {
            for _ in 0..forks {
                black_box(sim.fork().expect("every agent and tap is forkable"));
            }
        });
        (forks, elapsed)
    });
    (ns / 1e3, sim.approx_clone_bytes() as f64)
}

fn netsim(tracer: &Tracer, sizing: &Sizing, out: &mut Vec<Metric>) {
    let timer = ns_per_op(tracer, sizing, "netsim.timer", || timer_loop(false, sizing));
    out.push(Metric::new("netsim.timer_ns", timer, "ns"));
    let cancel = ns_per_op(tracer, sizing, "netsim.timer_cancel", || {
        timer_loop(true, sizing)
    });
    out.push(Metric::new("netsim.timer_cancel_ns", cancel, "ns"));

    let hop = ns_per_op(tracer, sizing, "netsim.link_hop", || {
        link_stream(Impairment::NONE, sizing)
    });
    out.push(Metric::new("netsim.link_hop_ns", hop, "ns"));
    let chaos = Impairment::preset("chaos").expect("built-in preset");
    let impaired = ns_per_op(tracer, sizing, "netsim.link_hop_impaired", || {
        link_stream(chaos, sizing)
    });
    out.push(Metric::new("netsim.link_hop_impaired_ns", impaired, "ns"));

    let dumbbell = dumbbell_mid_transfer();
    let (us, bytes) = fork_cost(tracer, sizing, "netsim.fork.dumbbell", &dumbbell);
    out.push(Metric::new("netsim.fork_us.dumbbell", us, "us"));
    out.push(Metric::new("netsim.fork_bytes.dumbbell", bytes, "B"));
    let star = star64_mid_transfer();
    let (us, bytes) = fork_cost(tracer, sizing, "netsim.fork.star64", &star);
    out.push(Metric::new("netsim.fork_us.star64", us, "us"));
    out.push(Metric::new("netsim.fork_bytes.star64", bytes, "B"));

    let builds = iters(200, sizing);
    let build = ns_per_op(tracer, sizing, "netsim.topology_build.star64", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..builds {
                let mut sim = Simulator::new(7);
                let layout = TopologyGen::generate(&star64_spec()).expect("valid star");
                black_box(layout.build(&mut sim));
                black_box(sim);
            }
        });
        (builds, elapsed)
    });
    out.push(Metric::new(
        "netsim.topology_build_us.star64",
        build / 1e3,
        "us",
    ));
}

// ---------------------------------------------------------------------
// tcp / dccp: sans-IO engine pairs, no simulator
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    Rto,
    Rtx,
    TimeWait,
}

enum Effect<S> {
    Transmit(S),
    Arm(Timer),
    Cancel(Timer),
    PeerClosed,
    Other,
}

/// What the pair driver needs from a sans-IO connection engine.
trait Engine {
    type Seg: Copy;
    type Event;
    fn open(&mut self, out: &mut Vec<Self::Event>);
    fn send(&mut self, bytes: u64, now: SimTime, out: &mut Vec<Self::Event>);
    fn close(&mut self, now: SimTime, out: &mut Vec<Self::Event>);
    fn deliver(&mut self, seg: Self::Seg, now: SimTime, out: &mut Vec<Self::Event>);
    fn fire(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Self::Event>);
    fn effect(event: Self::Event) -> Effect<Self::Seg>;
    fn established(&self) -> bool;
    fn closed(&self) -> bool;
    fn received(&self) -> u64;
}

impl Engine for Connection {
    type Seg = Seg;
    type Event = ConnEvent;
    fn open(&mut self, out: &mut Vec<ConnEvent>) {
        Connection::open(self, out);
    }
    fn send(&mut self, bytes: u64, now: SimTime, out: &mut Vec<ConnEvent>) {
        self.app_send(bytes, now, out);
    }
    fn close(&mut self, now: SimTime, out: &mut Vec<ConnEvent>) {
        self.app_close(now, out);
    }
    fn deliver(&mut self, seg: Seg, now: SimTime, out: &mut Vec<ConnEvent>) {
        self.on_segment(seg, now, out);
    }
    fn fire(&mut self, timer: Timer, now: SimTime, out: &mut Vec<ConnEvent>) {
        match timer {
            Timer::Rto => self.on_rto(now, out),
            Timer::TimeWait => self.on_time_wait_expiry(out),
            Timer::Rtx => {}
        }
    }
    fn effect(event: ConnEvent) -> Effect<Seg> {
        match event {
            ConnEvent::Transmit(seg) => Effect::Transmit(seg),
            ConnEvent::ArmRto(_) => Effect::Arm(Timer::Rto),
            ConnEvent::CancelRto => Effect::Cancel(Timer::Rto),
            ConnEvent::ArmTimeWait(_) => Effect::Arm(Timer::TimeWait),
            ConnEvent::PeerClosed => Effect::PeerClosed,
            _ => Effect::Other,
        }
    }
    fn established(&self) -> bool {
        self.state() == State::Established
    }
    fn closed(&self) -> bool {
        self.state() == State::Closed
    }
    fn received(&self) -> u64 {
        self.delivered()
    }
}

impl Engine for DccpConnection {
    type Seg = DccpSeg;
    type Event = DccpConnEvent;
    fn open(&mut self, out: &mut Vec<DccpConnEvent>) {
        DccpConnection::open(self, out);
    }
    fn send(&mut self, bytes: u64, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        self.app_send(bytes, now, out);
    }
    fn close(&mut self, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        self.app_close(now, out);
    }
    fn deliver(&mut self, seg: DccpSeg, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        self.on_packet(seg, now, out);
    }
    fn fire(&mut self, timer: Timer, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        match timer {
            Timer::Rto => self.on_rto(now, out),
            Timer::Rtx => self.on_rtx(now, out),
            Timer::TimeWait => self.on_time_wait_expiry(out),
        }
    }
    fn effect(event: DccpConnEvent) -> Effect<DccpSeg> {
        match event {
            DccpConnEvent::Transmit(seg) => Effect::Transmit(seg),
            DccpConnEvent::ArmRto(_) => Effect::Arm(Timer::Rto),
            DccpConnEvent::CancelRto => Effect::Cancel(Timer::Rto),
            DccpConnEvent::ArmRtx(_) => Effect::Arm(Timer::Rtx),
            DccpConnEvent::CancelRtx => Effect::Cancel(Timer::Rtx),
            DccpConnEvent::ArmTimeWait(_) => Effect::Arm(Timer::TimeWait),
            _ => Effect::Other,
        }
    }
    fn established(&self) -> bool {
        self.state() == DccpState::Open
    }
    fn closed(&self) -> bool {
        self.state() == DccpState::Closed
    }
    fn received(&self) -> u64 {
        self.goodput()
    }
}

const CLIENT: usize = 0;
const SERVER: usize = 1;

/// A client/server engine pair joined by two lossless in-memory queues.
/// Timers fire only when both queues are empty, TIME_WAIT first — the
/// order a quiet network would produce.
struct Pair<E: Engine> {
    ends: [E; 2],
    inbox: [VecDeque<E::Seg>; 2],
    armed: [[bool; 3]; 2],
    now: SimTime,
    events: Vec<E::Event>,
    /// Segments handed to an engine so far.
    deliveries: u64,
}

impl<E: Engine> Pair<E> {
    fn new(client: E, server: E) -> Pair<E> {
        Pair {
            ends: [client, server],
            inbox: [VecDeque::new(), VecDeque::new()],
            armed: [[false; 3]; 2],
            now: SimTime::ZERO,
            events: Vec::new(),
            deliveries: 0,
        }
    }

    /// Applies the effects the engine on `side` just asked for.
    fn absorb(&mut self, side: usize) {
        let events = std::mem::take(&mut self.events);
        for event in events {
            match E::effect(event) {
                Effect::Transmit(seg) => self.inbox[1 - side].push_back(seg),
                Effect::Arm(timer) => self.armed[side][timer as usize] = true,
                Effect::Cancel(timer) => self.armed[side][timer as usize] = false,
                Effect::PeerClosed => {
                    self.ends[side].close(self.now, &mut self.events);
                    self.absorb(side);
                }
                Effect::Other => {}
            }
        }
    }

    fn act(&mut self, side: usize, action: impl FnOnce(&mut E, SimTime, &mut Vec<E::Event>)) {
        action(&mut self.ends[side], self.now, &mut self.events);
        self.absorb(side);
    }

    /// Delivers one queued segment, or fires one armed timer when the
    /// network is quiet. Returns false when nothing is left to do.
    fn step(&mut self) -> bool {
        self.now += SimDuration::from_micros(100);
        for side in [SERVER, CLIENT] {
            if let Some(seg) = self.inbox[side].pop_front() {
                self.deliveries += 1;
                self.act(side, |end, now, out| end.deliver(seg, now, out));
                return true;
            }
        }
        for timer in [Timer::TimeWait, Timer::Rto, Timer::Rtx] {
            for side in [CLIENT, SERVER] {
                if std::mem::take(&mut self.armed[side][timer as usize]) {
                    self.now += SimDuration::from_secs(1);
                    self.act(side, |end, now, out| end.fire(timer, now, out));
                    return true;
                }
            }
        }
        false
    }

    fn run_until(&mut self, what: &str, done: impl Fn(&Pair<E>) -> bool) {
        let mut budget = 10_000_000u64;
        while !done(self) {
            budget -= 1;
            assert!(
                self.step() && budget > 0,
                "engine pair stalled before {what}"
            );
        }
    }

    /// Handshake, then the server pushes `bytes` at the client.
    fn transfer(&mut self, bytes: u64) {
        self.act(CLIENT, |end, _, out| end.open(out));
        self.run_until("the handshake", |p| p.ends[SERVER].established());
        self.act(SERVER, |end, now, out| end.send(bytes, now, out));
        self.run_until("the transfer", |p| p.ends[CLIENT].received() >= bytes);
    }

    /// Server closes; the client follows on `PeerClosed`; timers run out.
    fn teardown(&mut self) {
        self.act(SERVER, |end, now, out| end.close(now, out));
        self.run_until("teardown", |p| p.ends.iter().all(Engine::closed));
    }
}

/// `(ns per delivered segment of a bulk transfer, µs per connection cycle)`.
fn engine_pair<E: Engine>(
    tracer: &Tracer,
    sizing: &Sizing,
    spans: [&'static str; 2],
    make: impl Fn() -> Pair<E>,
) -> (f64, f64) {
    let bulk = (4 << 20) / sizing.micro_shrink;
    let segment = ns_per_op(tracer, sizing, spans[0], || {
        let mut pair = make();
        let ((), elapsed) = timed(|| pair.transfer(bulk));
        (pair.deliveries, elapsed)
    });
    let cycles = iters(200, sizing);
    let cycle = ns_per_op(tracer, sizing, spans[1], || {
        let ((), elapsed) = timed(|| {
            for _ in 0..cycles {
                let mut pair = make();
                pair.transfer(64 << 10);
                pair.teardown();
                black_box(pair.deliveries);
            }
        });
        (cycles, elapsed)
    });
    (segment, cycle / 1e3)
}

fn engines(tracer: &Tracer, sizing: &Sizing, out: &mut Vec<Metric>) {
    let (segment, cycle) = engine_pair(tracer, sizing, ["tcp.segment", "tcp.conn_cycle"], || {
        Pair::new(
            Connection::client(Profile::linux_3_13(), 1_000),
            Connection::server(Profile::linux_3_13(), 9_000),
        )
    });
    out.push(Metric::new("tcp.segment_ns", segment, "ns"));
    out.push(Metric::new("tcp.conn_cycle_us", cycle, "us"));
    let (packet, cycle) = engine_pair(tracer, sizing, ["dccp.packet", "dccp.conn_cycle"], || {
        Pair::new(
            DccpConnection::client(DccpProfile::linux_3_13(), 100),
            DccpConnection::server(DccpProfile::linux_3_13(), 9_000),
        )
    });
    out.push(Metric::new("dccp.packet_ns", packet, "ns"));
    out.push(Metric::new("dccp.conn_cycle_us", cycle, "us"));
}

// ---------------------------------------------------------------------
// proxy
// ---------------------------------------------------------------------

/// One bulk download over a single link, optionally through an attack
/// proxy carrying `rule`. Returns the packets that crossed the proxy (0
/// without one) and the wall-clock of the run.
fn proxied_download(proxy: Option<Option<Strategy>>, sizing: &Sizing) -> (u64, Duration) {
    let mut sim = Simulator::new(7);
    let client = sim.add_node("client");
    let server = sim.add_node("server");
    sim.set_agent(server, tcp_server());
    let mut host = TcpHost::new(Profile::linux_3_13());
    host.connect_at(SimTime::ZERO, Addr::new(server, 80));
    sim.set_agent(client, host);
    let link = sim.add_link(
        client,
        server,
        LinkSpec::new(100_000_000, SimDuration::from_millis(1), 128),
    );
    let tapped = proxy.is_some();
    if let Some(rule) = proxy {
        let proxy = AttackProxy::new(TcpAdapter, proxy_config(client, server), rule);
        sim.attach_tap(link, proxy);
    }
    let until = SimTime::from_micros(iters(2_000_000, sizing));
    let ((), elapsed) = timed(|| sim.run_until(until));
    let seen = if tapped {
        sim.tap::<AttackProxy>(link)
            .expect("proxy attached")
            .report()
            .packets_seen
    } else {
        0
    };
    (seen, elapsed)
}

fn proxy(tracer: &Tracer, sizing: &Sizing, out: &mut Vec<Metric>) {
    // A lie that rewrites a field to the value it already has: every DATA
    // packet matches and is re-serialised, the transfer is unchanged.
    let lie = Strategy {
        id: 0,
        kind: StrategyKind::OnPacket {
            endpoint: Endpoint::Server,
            state: "ESTABLISHED".to_owned(),
            packet_type: "DATA".to_owned(),
            attack: BasicAttack::Lie {
                field: "urgent_ptr".to_owned(),
                mutation: FieldMutation::Set(0),
            },
        },
    };
    // Each batch runs the three variants back to back, so the two
    // differences are taken under the same machine conditions.
    let (mut pass, mut matched) = (Vec::new(), Vec::new());
    for _ in 0..sizing.micro_batches {
        let _span = tracer.span("proxy.download_triplet");
        let (_, bare) = proxied_download(None, sizing);
        let (seen, observing) = proxied_download(Some(None), sizing);
        let (seen_lie, lying) = proxied_download(Some(Some(lie.clone())), sizing);
        assert!(
            seen > 0 && seen == seen_lie,
            "the lie must not alter the transfer"
        );
        let per_packet = |with: Duration, without: Duration| {
            (with.as_nanos() as f64 - without.as_nanos() as f64) / seen as f64
        };
        pass.push(per_packet(observing, bare));
        matched.push(per_packet(lying, observing));
    }
    out.push(Metric::new("proxy.pass_ns", median(&pass), "ns"));
    out.push(Metric::new("proxy.match_ns", median(&matched), "ns"));
}

// ---------------------------------------------------------------------
// detect, journal, json: over what the workload just produced
// ---------------------------------------------------------------------

fn detect(
    tracer: &Tracer,
    sizing: &Sizing,
    baseline: &TestMetrics,
    runs: &[TestMetrics],
    out: &mut Vec<Metric>,
) {
    let envelope = Envelope::from_baseline(baseline, DEFAULT_THRESHOLD);
    let rounds = iters(2_000, sizing);
    let ns = ns_per_op(tracer, sizing, "detect.enveloped", || {
        let ((), elapsed) = timed(|| {
            for _ in 0..rounds {
                for metrics in runs {
                    black_box(detect_enveloped(&envelope, black_box(metrics)));
                }
            }
        });
        (rounds * runs.len() as u64, elapsed)
    });
    out.push(Metric::new("detect.enveloped_ns", ns, "ns"));
}

fn journal_and_json(
    tracer: &Tracer,
    sizing: &Sizing,
    outcomes: &[StrategyOutcome],
    scratch: &Path,
    out: &mut Vec<Metric>,
) {
    let header = JournalHeader {
        implementation: "bench".to_owned(),
        seed: 7,
        threshold: DEFAULT_THRESHOLD,
        memoize: Some(true),
        impairment: Some("none".to_owned()),
    };
    let record = ns_per_op(tracer, sizing, "journal.record", || {
        let mut writer = JournalWriter::create(scratch, &header).expect("scratch journal");
        let ((), elapsed) = timed(|| {
            for outcome in outcomes {
                writer.record(outcome).expect("journal append");
            }
        });
        (outcomes.len() as u64, elapsed)
    });
    out.push(Metric::new("journal.record_us", record / 1e3, "us"));

    let load = ns_per_op(tracer, sizing, "journal.load", || {
        let (loaded, elapsed) = timed(|| journal::load(scratch).expect("scratch journal"));
        assert_eq!(loaded.outcomes.len(), outcomes.len(), "journal round-trips");
        (outcomes.len() as u64, elapsed)
    });
    out.push(Metric::new("journal.load_us_per_entry", load / 1e3, "us"));

    let text = std::fs::read_to_string(scratch).expect("scratch journal");
    out.push(Metric::new(
        "journal.bytes_per_entry",
        text.len() as f64 / outcomes.len() as f64,
        "B",
    ));
    std::fs::remove_file(scratch).ok();

    let encode = ns_per_op(tracer, sizing, "json.encode", || {
        let (bytes, elapsed) = timed(|| {
            outcomes
                .iter()
                .map(|o| black_box(o.to_json().to_string_compact()).len() as u64)
                .sum::<u64>()
        });
        (bytes, elapsed)
    });
    // ns per byte → MB/s.
    out.push(Metric::new("json.encode_mb_s", 1e3 / encode, "MB/s"));

    // Journal lines are `<json>\t<checksum>`; parse the JSON part.
    let payloads: Vec<&str> = text
        .lines()
        .map(|line| line.split_once('\t').map_or(line, |(json, _)| json))
        .collect();
    let parse = ns_per_op(tracer, sizing, "json.parse", || {
        let (bytes, elapsed) = timed(|| {
            payloads
                .iter()
                .map(|p| {
                    black_box(snake_json::parse(p).expect("journal line parses"));
                    p.len() as u64
                })
                .sum::<u64>()
        });
        (bytes, elapsed)
    });
    out.push(Metric::new("json.parse_mb_s", 1e3 / parse, "MB/s"));
}

/// What the microbenchmarks borrow from the workload's own run.
#[derive(Debug)]
pub struct MicroInputs<'a> {
    /// The workload's baseline metrics.
    pub baseline: &'a TestMetrics,
    /// Metrics of sampled strategy runs (detector input).
    pub runs: &'a [TestMetrics],
    /// The last rep's outcomes (journal and JSON input).
    pub outcomes: &'a [StrategyOutcome],
    /// A file the journal benchmarks may create and delete.
    pub scratch: &'a Path,
}

/// Runs every microbenchmark and returns its metrics.
pub fn run_all(tracer: &Tracer, sizing: &Sizing, inputs: &MicroInputs<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    packet(tracer, sizing, &mut out);
    statemachine(tracer, sizing, &mut out);
    netsim(tracer, sizing, &mut out);
    engines(tracer, sizing, &mut out);
    proxy(tracer, sizing, &mut out);
    detect(tracer, sizing, inputs.baseline, inputs.runs, &mut out);
    journal_and_json(tracer, sizing, inputs.outcomes, inputs.scratch, &mut out);
    out
}
