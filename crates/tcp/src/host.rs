use rand::Rng;
use snake_netsim::{Addr, Agent, Ctx, FxHashMap as HashMap, Packet, Protocol, SimTime};
use snake_packet::tcp::{TcpBuilder, TcpFlags, TcpView};

use crate::conn::{ConnEvent, Connection, Seg, State};
use crate::profile::Profile;

/// What a listening server runs on each accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerApp {
    /// Push `bytes` of application data at the client, then close — the
    /// evaluation's HTTP-download analogue (`u64::MAX` models a download
    /// larger than any test run, which is how the paper tests: "a large
    /// HTTP download with Apache or IIS ... and wget for clients").
    BulkSender {
        /// Total bytes to send.
        bytes: u64,
    },
}

impl ServerApp {
    /// Convenience constructor for the bulk sender.
    pub fn bulk_sender(bytes: u64) -> ServerApp {
        ServerApp::BulkSender { bytes }
    }
}

/// Snapshot of one connection's observable state, the per-connection part
/// of the metrics the executor reports to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnMetrics {
    /// Local port.
    pub local_port: u16,
    /// Remote address.
    pub remote: Addr,
    /// Current lifecycle state.
    pub state: State,
    /// In-order bytes delivered to the application.
    pub delivered: u64,
    /// Segments sent (including retransmissions).
    pub segs_sent: u64,
    /// Segments received.
    pub segs_received: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// RSTs sent.
    pub rsts_sent: u64,
}

/// The by-state socket count the executor queries after a test — the
/// simulated `netstat` of the paper's §V-A.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocketCensus {
    counts: HashMap<&'static str, usize>,
}

impl SocketCensus {
    /// Number of sockets in the named state (for example `"CLOSE_WAIT"`).
    pub fn count(&self, state: &str) -> usize {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// Sockets that should have been released but were not: everything
    /// except CLOSED, LISTEN, and TIME_WAIT (the latter being a normal,
    /// bounded part of teardown).
    pub fn leaked(&self) -> usize {
        self.counts
            .iter()
            .filter(|(s, _)| !matches!(**s, "CLOSED" | "LISTEN" | "TIME_WAIT"))
            .map(|(_, n)| n)
            .sum()
    }

    /// Iterates over `(state name, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.counts.iter().map(|(s, n)| (*s, *n))
    }
}

const KIND_RTO: u64 = 0;
const KIND_TIME_WAIT: u64 = 1;
const KIND_APP_CLOSE: u64 = 2;
const KIND_PLAN: u64 = 3;

fn tag(idx: usize, kind: u64, gen: u64) -> u64 {
    ((idx as u64) << 32) | (kind << 28) | (gen & 0x0FFF_FFFF)
}

fn untag(tag: u64) -> (usize, u64, u64) {
    ((tag >> 32) as usize, (tag >> 28) & 0xF, tag & 0x0FFF_FFFF)
}

#[derive(Debug, Clone, Copy)]
enum AppKind {
    /// Client side of a download: counts delivered bytes.
    ClientDownload,
    /// Server side: pushes bytes on accept, closes when told the peer left.
    ServerBulk { bytes: u64 },
}

#[derive(Debug, Clone)]
struct ConnSlot {
    conn: Connection,
    local_port: u16,
    remote: Addr,
    app: AppKind,
    rto_gen: u64,
}

#[derive(Debug, Clone, Copy)]
struct ConnectPlan {
    at: SimTime,
    remote: Addr,
}

/// A simulated host running the TCP implementation under test: socket
/// table, listeners, and the client/server applications of the evaluation
/// workload. Implements [`Agent`] so it can be installed on any simulator
/// node.
#[derive(Debug, Clone)]
pub struct TcpHost {
    profile: Profile,
    conns: Vec<ConnSlot>,
    by_pair: HashMap<(u16, Addr), usize>,
    listeners: HashMap<u16, ServerApp>,
    plans: Vec<ConnectPlan>,
    next_ephemeral: u16,
    total_delivered: u64,
    malformed_dropped: u64,
    /// Reused buffer for the events one callback produces, so handling a
    /// segment does not allocate. Always empty between callbacks.
    events: Vec<ConnEvent>,
}

impl TcpHost {
    /// Creates a host running the given implementation profile.
    pub fn new(profile: Profile) -> TcpHost {
        TcpHost {
            profile,
            conns: Vec::new(),
            by_pair: HashMap::default(),
            listeners: HashMap::default(),
            plans: Vec::new(),
            next_ephemeral: 40_000,
            total_delivered: 0,
            malformed_dropped: 0,
            events: Vec::new(),
        }
    }

    /// The profile this host runs.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Starts listening on `port`, running `app` on each accepted
    /// connection.
    pub fn listen(&mut self, port: u16, app: ServerApp) {
        self.listeners.insert(port, app);
    }

    /// Schedules a client connection to `remote` at simulated time `at`
    /// (must be called before the simulation starts).
    pub fn connect_at(&mut self, at: SimTime, remote: Addr) {
        self.plans.push(ConnectPlan { at, remote });
    }

    /// Opens a client connection immediately (usable from a scheduled
    /// control action).
    pub fn connect_now(&mut self, ctx: &mut Ctx<'_>, remote: Addr) {
        let port = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(40_000);
        let iss: u32 = ctx.rng().gen();
        let conn = Connection::client(self.profile.clone(), iss);
        let idx = self.install(conn, port, remote, AppKind::ClientDownload);
        self.drive(ctx, idx, |conn, _now, events| conn.open(events));
    }

    /// Abortively closes every connection — the moment the test ends and
    /// the client process is killed mid-download.
    pub fn abort_all(&mut self, ctx: &mut Ctx<'_>) {
        for idx in 0..self.conns.len() {
            self.drive(ctx, idx, Connection::app_abort);
        }
    }

    /// Gracefully closes every connection.
    pub fn close_all(&mut self, ctx: &mut Ctx<'_>) {
        for idx in 0..self.conns.len() {
            self.drive(ctx, idx, Connection::app_close);
        }
    }

    /// Total bytes delivered to applications on this host (the executor's
    /// throughput measurement source).
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Packets dropped as malformed (bad checksum or header length).
    pub fn malformed_dropped(&self) -> u64 {
        self.malformed_dropped
    }

    /// Per-connection metrics.
    pub fn conn_metrics(&self) -> Vec<ConnMetrics> {
        self.conns
            .iter()
            .map(|s| ConnMetrics {
                local_port: s.local_port,
                remote: s.remote,
                state: s.conn.state(),
                delivered: s.conn.delivered(),
                segs_sent: s.conn.segs_sent(),
                segs_received: s.conn.segs_received(),
                retransmits: s.conn.retransmits(),
                rsts_sent: s.conn.rsts_sent(),
            })
            .collect()
    }

    /// Counts sockets by state — the simulated `netstat`.
    pub fn census(&self) -> SocketCensus {
        let mut census = SocketCensus::default();
        for s in &self.conns {
            *census.counts.entry(s.conn.state().name()).or_insert(0) += 1;
        }
        census
    }

    fn install(&mut self, conn: Connection, port: u16, remote: Addr, app: AppKind) -> usize {
        let idx = self.conns.len();
        self.conns.push(ConnSlot {
            conn,
            local_port: port,
            remote,
            app,
            rto_gen: 0,
        });
        self.by_pair.insert((port, remote), idx);
        idx
    }

    /// Runs one engine entry point on connection `idx` and applies the
    /// events it produces, including any those events in turn generate,
    /// until quiescence.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: usize,
        step: impl FnOnce(&mut Connection, SimTime, &mut Vec<ConnEvent>),
    ) {
        let mut events = std::mem::take(&mut self.events);
        step(&mut self.conns[idx].conn, ctx.now(), &mut events);
        let mut next = 0;
        while let Some(&ev) = events.get(next) {
            next += 1;
            match ev {
                ConnEvent::Transmit(seg) => {
                    let slot = &self.conns[idx];
                    let pkt =
                        build_packet(Addr::new(ctx.node(), slot.local_port), slot.remote, &seg);
                    ctx.send(pkt);
                }
                ConnEvent::ArmRto(after) => {
                    let slot = &mut self.conns[idx];
                    slot.rto_gen += 1;
                    let t = tag(idx, KIND_RTO, slot.rto_gen);
                    ctx.set_timer(after, t);
                }
                ConnEvent::CancelRto => {
                    self.conns[idx].rto_gen += 1;
                }
                ConnEvent::ArmTimeWait(after) => {
                    ctx.set_timer(after, tag(idx, KIND_TIME_WAIT, 0));
                }
                ConnEvent::Connected => {}
                ConnEvent::Accepted => {
                    if let AppKind::ServerBulk { bytes } = self.conns[idx].app {
                        self.conns[idx].conn.app_send(bytes, ctx.now(), &mut events);
                    }
                }
                ConnEvent::DeliverData(n) => {
                    self.total_delivered += n as u64;
                }
                ConnEvent::PeerClosed => {
                    // The server application notices EOF and closes its
                    // side shortly after.
                    if matches!(self.conns[idx].app, AppKind::ServerBulk { .. }) {
                        ctx.set_timer(self.profile.app_close_delay, tag(idx, KIND_APP_CLOSE, 0));
                    }
                }
                ConnEvent::Reset(_) | ConnEvent::Finished => {
                    // Socket is CLOSED; it stays in the table for the
                    // census but receives no more traffic.
                }
            }
        }
        events.clear();
        self.events = events;
    }
}

/// Encodes an outbound segment as a wire packet.
fn build_packet(src: Addr, dst: Addr, seg: &Seg) -> Packet {
    let header = TcpBuilder::new(src.port, dst.port)
        .seq(seg.seq)
        .ack(seg.ack)
        .window(seg.window)
        .flags(seg.flags)
        .urgent_ptr(seg.urgent_ptr)
        .encode();
    Packet::new(src, dst, Protocol::Tcp, header, seg.payload_len)
}

/// Decodes a wire packet into a segment, or `None` if the header is
/// malformed (short, bad length field, or failed checksum) — exactly the
/// packets a real stack silently drops, which is what turns the proxy's
/// structural lie mutations into connection-establishment denial.
fn parse_packet(pkt: &Packet) -> Option<Seg> {
    let view = TcpView::new(&pkt.header).ok()?;
    // A real stack validates the header length and checksum before
    // processing. The simulation writes data_offset=5 and checksum=0 on
    // legitimate packets, so any other value means the field was mutated
    // in flight.
    if view.data_offset() != 5 {
        return None;
    }
    if view.checksum() != 0 {
        return None;
    }
    Some(Seg {
        seq: view.seq(),
        ack: view.ack(),
        flags: view.flags(),
        window: view.window(),
        urgent_ptr: view.urgent_ptr(),
        payload_len: pkt.payload_len,
    })
}

impl Agent for TcpHost {
    fn boxed_clone(&self) -> Option<Box<dyn Agent>> {
        Some(Box::new(self.clone()))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let plans = self.plans.clone();
        for (i, plan) in plans.iter().enumerate() {
            if plan.at <= ctx.now() {
                self.connect_now(ctx, plan.remote);
            } else {
                ctx.set_timer(plan.at - ctx.now(), tag(i, KIND_PLAN, 0));
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if packet.protocol != Protocol::Tcp {
            return;
        }
        let Some(seg) = parse_packet(&packet) else {
            self.malformed_dropped += 1;
            return;
        };
        let key = (packet.dst.port, packet.src);
        if let Some(&idx) = self.by_pair.get(&key) {
            self.drive(ctx, idx, |conn, now, events| {
                conn.on_segment(seg, now, events)
            });
            return;
        }
        // No existing connection: maybe a listener accepts it.
        if let Some(&app) = self.listeners.get(&packet.dst.port) {
            if seg.flags.syn && !seg.flags.ack && !seg.flags.rst {
                let iss: u32 = ctx.rng().gen();
                let conn = Connection::server(self.profile.clone(), iss);
                let idx = self.install(
                    conn,
                    packet.dst.port,
                    packet.src,
                    match app {
                        ServerApp::BulkSender { bytes } => AppKind::ServerBulk { bytes },
                    },
                );
                self.drive(ctx, idx, |conn, now, events| {
                    conn.on_segment(seg, now, events)
                });
                return;
            }
        }
        // Closed port: RFC 793 answers with RST (unless it was a RST).
        if !seg.flags.rst {
            let rst = Seg {
                seq: if seg.flags.ack { seg.ack } else { 0 },
                ack: seg.seq.wrapping_add(seg.payload_len.max(1)),
                flags: TcpFlags::RST_ACK,
                window: 0,
                urgent_ptr: 0,
                payload_len: 0,
            };
            let pkt = build_packet(Addr::new(ctx.node(), packet.dst.port), packet.src, &rst);
            ctx.send(pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        let (idx, kind, gen) = untag(t);
        match kind {
            KIND_PLAN => {
                if let Some(plan) = self.plans.get(idx).copied() {
                    self.connect_now(ctx, plan.remote);
                }
            }
            KIND_RTO if idx < self.conns.len() && self.conns[idx].rto_gen == gen => {
                self.drive(ctx, idx, Connection::on_rto);
            }
            KIND_TIME_WAIT if idx < self.conns.len() => {
                self.drive(ctx, idx, |conn, _now, events| {
                    conn.on_time_wait_expiry(events)
                });
            }
            KIND_APP_CLOSE if idx < self.conns.len() => {
                self.drive(ctx, idx, Connection::app_close);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_netsim::{Dumbbell, DumbbellSpec, LinkSpec, SimDuration, Simulator, Tap, TapCtx};

    fn download_sim(profile: Profile, secs: u64) -> (Simulator, Dumbbell) {
        let mut sim = Simulator::new(11);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        let mut s1 = TcpHost::new(profile.clone());
        s1.listen(80, ServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server1, s1);
        let mut s2 = TcpHost::new(profile.clone());
        s2.listen(80, ServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server2, s2);
        let mut c1 = TcpHost::new(profile.clone());
        c1.connect_at(SimTime::ZERO, Addr::new(d.server1, 80));
        sim.set_agent(d.client1, c1);
        let mut c2 = TcpHost::new(profile);
        c2.connect_at(SimTime::ZERO, Addr::new(d.server2, 80));
        sim.set_agent(d.client2, c2);
        sim.run_until(SimTime::from_secs(secs));
        (sim, d)
    }

    #[test]
    fn download_fills_the_bottleneck() {
        let (sim, d) = download_sim(Profile::linux_3_13(), 10);
        let got = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        // 10 Mbit/s bottleneck shared by two flows over 10 s ≈ 12.5 MB
        // total; each flow should get a solid share and the pipe should be
        // well utilised.
        let got2 = sim.agent::<TcpHost>(d.client2).unwrap().total_delivered();
        let total = got + got2;
        assert!(total > 8_000_000, "bottleneck utilisation too low: {total}");
        assert!(total < 13_500_000, "more than line rate?! {total}");
    }

    #[test]
    fn competing_flows_share_fairly() {
        // The fairness baseline the paper's ±50% detection threshold rests
        // on: two unattacked flows achieve throughput within a factor of
        // two of each other (§VI).
        for profile in Profile::all() {
            let name = profile.name.clone();
            let (sim, d) = download_sim(profile, 20);
            let a = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered() as f64;
            let b = sim.agent::<TcpHost>(d.client2).unwrap().total_delivered() as f64;
            let ratio = a.max(b) / a.min(b).max(1.0);
            assert!(
                ratio < 2.0,
                "{name}: unfair baseline, ratio {ratio:.2} ({a} vs {b})"
            );
        }
    }

    #[test]
    fn abort_then_clean_teardown_leaves_no_leak() {
        let (mut sim, d) = download_sim(Profile::linux_3_13(), 5);
        // Kill the client mid-download; its RSTs flow unhindered, so the
        // server must clean up.
        sim.schedule_control(SimTime::from_secs(5), d.client1, |agent, ctx| {
            let any: &mut dyn std::any::Any = agent;
            any.downcast_mut::<TcpHost>().unwrap().abort_all(ctx);
        });
        sim.run_until(SimTime::from_secs(40));
        let census = sim.agent::<TcpHost>(d.server1).unwrap().census();
        assert_eq!(census.leaked(), 0, "census: {census:?}");
    }

    /// Drops every RST travelling client→server; forwards everything else.
    struct RstDropTap;
    impl Tap for RstDropTap {
        fn on_packet(&mut self, ctx: &mut TapCtx<'_>, packet: Packet, toward_b: bool) {
            if toward_b {
                if let Ok(view) = TcpView::new(&packet.header) {
                    if view.flags().rst {
                        return; // drop
                    }
                }
            }
            ctx.forward(packet, toward_b);
        }
    }

    #[test]
    fn dropping_rsts_wedges_linux_server_in_close_wait() {
        // End-to-end reproduction of the CLOSE_WAIT resource-exhaustion
        // attack (paper §VI-A.1) at the host level.
        let mut sim = Simulator::new(11);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        let profile = Profile::linux_3_0_0();
        let mut s1 = TcpHost::new(profile.clone());
        s1.listen(80, ServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server1, s1);
        let mut c1 = TcpHost::new(profile);
        c1.connect_at(SimTime::ZERO, Addr::new(d.server1, 80));
        sim.set_agent(d.client1, c1);
        sim.attach_tap(d.proxy_link, RstDropTap);

        sim.schedule_control(SimTime::from_secs(5), d.client1, |agent, ctx| {
            let any: &mut dyn std::any::Any = agent;
            any.downcast_mut::<TcpHost>().unwrap().abort_all(ctx);
        });
        sim.run_until(SimTime::from_secs(40));
        let census = sim.agent::<TcpHost>(d.server1).unwrap().census();
        assert_eq!(census.count("CLOSE_WAIT"), 1, "census: {census:?}");
        assert!(census.leaked() > 0);
    }

    #[test]
    fn windows_server_recovers_from_dropped_rsts() {
        // Windows clients abort with a bare RST (no FIN): the server never
        // enters CLOSE_WAIT, and its 5-retry give-up frees the socket well
        // within the observation window — which is why the paper reports
        // the CLOSE_WAIT attack against Linux only.
        let mut sim = Simulator::new(11);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        let profile = Profile::windows_8_1();
        let mut s1 = TcpHost::new(profile.clone());
        s1.listen(80, ServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server1, s1);
        let mut c1 = TcpHost::new(profile);
        c1.connect_at(SimTime::ZERO, Addr::new(d.server1, 80));
        sim.set_agent(d.client1, c1);
        sim.attach_tap(d.proxy_link, RstDropTap);

        sim.schedule_control(SimTime::from_secs(5), d.client1, |agent, ctx| {
            let any: &mut dyn std::any::Any = agent;
            any.downcast_mut::<TcpHost>().unwrap().abort_all(ctx);
        });
        sim.run_until(SimTime::from_secs(60));
        let census = sim.agent::<TcpHost>(d.server1).unwrap().census();
        assert_eq!(census.count("CLOSE_WAIT"), 0, "census: {census:?}");
        assert_eq!(census.leaked(), 0, "census: {census:?}");
    }

    #[test]
    fn malformed_packets_are_dropped() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_link(
            a,
            b,
            LinkSpec::new(10_000_000, SimDuration::from_millis(1), 16),
        );
        let mut host = TcpHost::new(Profile::linux_3_13());
        host.listen(80, ServerApp::bulk_sender(1_000));
        sim.set_agent(b, host);

        // A SYN with a corrupted checksum field must be ignored.
        struct BadSyn {
            target: Addr,
        }
        impl Agent for BadSyn {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let mut header = TcpBuilder::new(40_000, 80).flags(TcpFlags::SYN).build();
                header.set("checksum", 0xBEEF).unwrap();
                let pkt = Packet::new(
                    ctx.addr(40_000),
                    self.target,
                    Protocol::Tcp,
                    header.into_bytes(),
                    0,
                );
                ctx.send(pkt);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
        }
        sim.set_agent(
            a,
            BadSyn {
                target: Addr::new(b, 80),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        let host = sim.agent::<TcpHost>(b).unwrap();
        assert_eq!(host.malformed_dropped(), 1);
        assert_eq!(host.census().count("SYN_RECEIVED"), 0);
    }

    #[test]
    fn parse_packet_keeps_every_header_check() {
        let packet = |header: Vec<u8>| {
            let node = snake_netsim::NodeId::from_index(0);
            Packet::new(
                Addr::new(node, 40_000),
                Addr::new(node, 80),
                Protocol::Tcp,
                header,
                7,
            )
        };
        let good = TcpBuilder::new(40_000, 80)
            .seq(11)
            .ack(22)
            .flags(TcpFlags::ACK)
            .build();
        let seg = parse_packet(&packet(good.bytes().to_vec())).expect("well-formed header");
        assert_eq!((seg.seq, seg.ack, seg.payload_len), (11, 22, 7));

        assert!(
            parse_packet(&packet(good.bytes()[..19].to_vec())).is_none(),
            "19-byte header"
        );
        for (field, value) in [("data_offset", 6), ("data_offset", 0), ("checksum", 1)] {
            let mut mutated = good.clone();
            mutated.set(field, value).unwrap();
            assert!(
                parse_packet(&packet(mutated.into_bytes())).is_none(),
                "{field} = {value}"
            );
        }
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_link(
            a,
            b,
            LinkSpec::new(10_000_000, SimDuration::from_millis(1), 16),
        );
        sim.set_agent(b, TcpHost::new(Profile::linux_3_13())); // no listener

        struct Probe {
            target: Addr,
            got_rst: bool,
        }
        impl Agent for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let header = TcpBuilder::new(40_000, 81).flags(TcpFlags::SYN).build();
                let pkt = Packet::new(
                    ctx.addr(40_000),
                    self.target,
                    Protocol::Tcp,
                    header.into_bytes(),
                    0,
                );
                ctx.send(pkt);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: Packet) {
                if TcpView::new(&packet.header)
                    .map(|v| v.flags().rst)
                    .unwrap_or(false)
                {
                    self.got_rst = true;
                }
            }
        }
        sim.set_agent(
            a,
            Probe {
                target: Addr::new(b, 81),
                got_rst: false,
            },
        );
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.agent::<Probe>(a).unwrap().got_rst);
    }

    #[test]
    fn census_counts_states() {
        let (sim, d) = download_sim(Profile::linux_3_13(), 3);
        let census = sim.agent::<TcpHost>(d.server1).unwrap().census();
        assert_eq!(census.count("ESTABLISHED"), 1);
        assert_eq!(census.leaked(), 1, "mid-transfer the socket is live");
    }
}
