use rand::Rng;
use snake_netsim::{Addr, Agent, Ctx, FxHashMap as HashMap, Packet, Protocol, SimTime};
use snake_packet::dccp::{DccpBuilder, DccpView};

use crate::conn::{DccpConnEvent, DccpConnection, DccpSeg, DccpState};
use crate::profile::DccpProfile;

/// What a listening DCCP server runs on each accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DccpServerApp {
    /// Push `bytes` of application data at the client — the iperf-style
    /// workload of the paper's DCCP evaluation (§VI-B: goodput measured at
    /// the receiver).
    BulkSender {
        /// Total bytes to send.
        bytes: u64,
    },
}

impl DccpServerApp {
    /// Convenience constructor for the bulk sender.
    pub fn bulk_sender(bytes: u64) -> DccpServerApp {
        DccpServerApp::BulkSender { bytes }
    }
}

/// Snapshot of one DCCP connection's observable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DccpConnMetrics {
    /// Local port.
    pub local_port: u16,
    /// Remote address.
    pub remote: Addr,
    /// Current lifecycle state.
    pub state: DccpState,
    /// Payload bytes received (goodput).
    pub goodput: u64,
    /// Packets sent.
    pub packets_sent: u64,
    /// Packets received.
    pub packets_received: u64,
    /// SYNCs sent.
    pub syncs_sent: u64,
    /// CCID-2 loss events.
    pub loss_events: u64,
    /// Transmit timeouts.
    pub rto_events: u64,
    /// Packets still waiting in the application send queue.
    pub queue_len: usize,
}

/// By-state socket census — the simulated `netstat` for DCCP.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DccpSocketCensus {
    counts: HashMap<&'static str, usize>,
}

impl DccpSocketCensus {
    /// Number of sockets in the named state.
    pub fn count(&self, state: &str) -> usize {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// Sockets that should have been released but were not.
    pub fn leaked(&self) -> usize {
        self.counts
            .iter()
            .filter(|(s, _)| !matches!(**s, "CLOSED" | "LISTEN" | "TIMEWAIT"))
            .map(|(_, n)| n)
            .sum()
    }

    /// Iterates over `(state name, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.counts.iter().map(|(s, n)| (*s, *n))
    }
}

const KIND_RTO: u64 = 0;
const KIND_RTX: u64 = 1;
const KIND_TIME_WAIT: u64 = 2;
const KIND_PLAN: u64 = 3;

fn tag(idx: usize, kind: u64, gen: u64) -> u64 {
    ((idx as u64) << 32) | (kind << 28) | (gen & 0x0FFF_FFFF)
}

fn untag(tag: u64) -> (usize, u64, u64) {
    ((tag >> 32) as usize, (tag >> 28) & 0xF, tag & 0x0FFF_FFFF)
}

#[derive(Debug, Clone)]
struct ConnSlot {
    conn: DccpConnection,
    local_port: u16,
    remote: Addr,
    app: Option<DccpServerApp>,
    rto_gen: u64,
    rtx_gen: u64,
}

#[derive(Debug, Clone, Copy)]
struct ConnectPlan {
    at: SimTime,
    remote: Addr,
}

/// A simulated host running the DCCP implementation under test.
#[derive(Debug, Clone)]
pub struct DccpHost {
    profile: DccpProfile,
    conns: Vec<ConnSlot>,
    by_pair: HashMap<(u16, Addr), usize>,
    listeners: HashMap<u16, DccpServerApp>,
    plans: Vec<ConnectPlan>,
    next_ephemeral: u16,
    total_goodput: u64,
    /// Reused buffer for the events one callback produces, so handling a
    /// packet does not allocate. Always empty between callbacks.
    events: Vec<DccpConnEvent>,
}

impl DccpHost {
    /// Creates a host running the given profile.
    pub fn new(profile: DccpProfile) -> DccpHost {
        DccpHost {
            profile,
            conns: Vec::new(),
            by_pair: HashMap::default(),
            listeners: HashMap::default(),
            plans: Vec::new(),
            next_ephemeral: 40_000,
            total_goodput: 0,
            events: Vec::new(),
        }
    }

    /// The profile this host runs.
    pub fn profile(&self) -> &DccpProfile {
        &self.profile
    }

    /// Starts listening on `port`.
    pub fn listen(&mut self, port: u16, app: DccpServerApp) {
        self.listeners.insert(port, app);
    }

    /// Schedules a client connection before the simulation starts.
    pub fn connect_at(&mut self, at: SimTime, remote: Addr) {
        self.plans.push(ConnectPlan { at, remote });
    }

    /// Opens a client connection immediately.
    pub fn connect_now(&mut self, ctx: &mut Ctx<'_>, remote: Addr) {
        let port = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(40_000);
        let iss: u64 = ctx.rng().gen::<u64>() & ((1 << 48) - 1);
        let conn = DccpConnection::client(self.profile.clone(), iss);
        let idx = self.install(conn, port, remote, None);
        self.drive(ctx, idx, |conn, _now, events| conn.open(events));
    }

    /// Gracefully closes every connection (iperf finishing / being
    /// stopped; DCCP has no abortive close short of a raw Reset).
    pub fn close_all(&mut self, ctx: &mut Ctx<'_>) {
        for idx in 0..self.conns.len() {
            self.drive(ctx, idx, DccpConnection::app_close);
        }
    }

    /// Total goodput delivered to applications on this host.
    pub fn total_goodput(&self) -> u64 {
        self.total_goodput
    }

    /// Per-connection metrics.
    pub fn conn_metrics(&self) -> Vec<DccpConnMetrics> {
        self.conns
            .iter()
            .map(|s| DccpConnMetrics {
                local_port: s.local_port,
                remote: s.remote,
                state: s.conn.state(),
                goodput: s.conn.goodput(),
                packets_sent: s.conn.packets_sent(),
                packets_received: s.conn.packets_received(),
                syncs_sent: s.conn.syncs_sent(),
                loss_events: s.conn.loss_events(),
                rto_events: s.conn.rto_events(),
                queue_len: s.conn.queue_len(),
            })
            .collect()
    }

    /// Counts sockets by state.
    pub fn census(&self) -> DccpSocketCensus {
        let mut census = DccpSocketCensus::default();
        for s in &self.conns {
            *census.counts.entry(s.conn.state().name()).or_insert(0) += 1;
        }
        census
    }

    fn install(
        &mut self,
        conn: DccpConnection,
        port: u16,
        remote: Addr,
        app: Option<DccpServerApp>,
    ) -> usize {
        let idx = self.conns.len();
        self.conns.push(ConnSlot {
            conn,
            local_port: port,
            remote,
            app,
            rto_gen: 0,
            rtx_gen: 0,
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
        step: impl FnOnce(&mut DccpConnection, SimTime, &mut Vec<DccpConnEvent>),
    ) {
        let mut events = std::mem::take(&mut self.events);
        step(&mut self.conns[idx].conn, ctx.now(), &mut events);
        let mut next = 0;
        while let Some(&ev) = events.get(next) {
            next += 1;
            match ev {
                DccpConnEvent::Transmit(seg) => {
                    let slot = &self.conns[idx];
                    let pkt =
                        build_packet(Addr::new(ctx.node(), slot.local_port), slot.remote, &seg);
                    ctx.send(pkt);
                }
                DccpConnEvent::ArmRto(after) => {
                    let slot = &mut self.conns[idx];
                    slot.rto_gen += 1;
                    ctx.set_timer(after, tag(idx, KIND_RTO, slot.rto_gen));
                }
                DccpConnEvent::CancelRto => {
                    self.conns[idx].rto_gen += 1;
                }
                DccpConnEvent::ArmRtx(after) => {
                    let slot = &mut self.conns[idx];
                    slot.rtx_gen += 1;
                    ctx.set_timer(after, tag(idx, KIND_RTX, slot.rtx_gen));
                }
                DccpConnEvent::CancelRtx => {
                    self.conns[idx].rtx_gen += 1;
                }
                DccpConnEvent::ArmTimeWait(after) => {
                    ctx.set_timer(after, tag(idx, KIND_TIME_WAIT, 0));
                }
                DccpConnEvent::Connected => {}
                DccpConnEvent::Accepted => {
                    if let Some(DccpServerApp::BulkSender { bytes }) = self.conns[idx].app {
                        self.conns[idx].conn.app_send(bytes, ctx.now(), &mut events);
                    }
                }
                DccpConnEvent::DeliverData(n) => {
                    self.total_goodput += n as u64;
                }
                DccpConnEvent::Reset(_) | DccpConnEvent::Finished => {}
            }
        }
        events.clear();
        self.events = events;
    }
}

/// Encodes an outbound DCCP packet.
fn build_packet(src: Addr, dst: Addr, seg: &DccpSeg) -> Packet {
    let header = DccpBuilder::new(src.port, dst.port, seg.ptype)
        .seq(seg.seq)
        .ack(seg.ack)
        .ack_reserved(seg.loss_echo)
        .encode();
    Packet::new(src, dst, Protocol::Dccp, header, seg.payload_len)
}

/// Decodes a wire packet, or `None` for malformed ones (short header,
/// reserved type code, bad checksum).
fn parse_packet(pkt: &Packet) -> Option<DccpSeg> {
    let view = DccpView::new(&pkt.header).ok()?;
    if view.checksum() != 0 {
        return None;
    }
    let ptype = view.packet_type()?;
    Some(DccpSeg {
        ptype,
        seq: view.seq(),
        ack: view.ack(),
        loss_echo: view.ack_reserved(),
        payload_len: pkt.payload_len,
    })
}

impl Agent for DccpHost {
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
        if packet.protocol != Protocol::Dccp {
            return;
        }
        let Some(seg) = parse_packet(&packet) else {
            return;
        };
        let key = (packet.dst.port, packet.src);
        if let Some(&idx) = self.by_pair.get(&key) {
            self.drive(ctx, idx, |conn, now, events| {
                conn.on_packet(seg, now, events)
            });
            return;
        }
        if let Some(&app) = self.listeners.get(&packet.dst.port) {
            if seg.ptype == snake_packet::dccp::DccpPacketType::Request {
                let iss: u64 = ctx.rng().gen::<u64>() & ((1 << 48) - 1);
                let conn = DccpConnection::server(self.profile.clone(), iss);
                let idx = self.install(conn, packet.dst.port, packet.src, Some(app));
                self.drive(ctx, idx, |conn, now, events| {
                    conn.on_packet(seg, now, events)
                });
                return;
            }
        }
        // No socket: RFC 4340 answers with a Reset (unless it was one).
        if seg.ptype != snake_packet::dccp::DccpPacketType::Reset {
            let rst = DccpSeg {
                ptype: snake_packet::dccp::DccpPacketType::Reset,
                seq: seg.ack.wrapping_add(1) & ((1 << 48) - 1),
                ack: seg.seq,
                loss_echo: 0,
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
                self.drive(ctx, idx, DccpConnection::on_rto);
            }
            KIND_RTX if idx < self.conns.len() && self.conns[idx].rtx_gen == gen => {
                self.drive(ctx, idx, DccpConnection::on_rtx);
            }
            KIND_TIME_WAIT if idx < self.conns.len() => {
                self.drive(ctx, idx, |conn, _now, events| {
                    conn.on_time_wait_expiry(events)
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_netsim::{Dumbbell, DumbbellSpec, Simulator, Tap, TapCtx};

    fn download_sim(secs: u64) -> (Simulator, Dumbbell) {
        let mut sim = Simulator::new(21);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        for (srv, cli) in [(d.server1, d.client1), (d.server2, d.client2)] {
            let mut s = DccpHost::new(DccpProfile::linux_3_13());
            s.listen(5001, DccpServerApp::bulk_sender(u64::MAX));
            sim.set_agent(srv, s);
            let mut c = DccpHost::new(DccpProfile::linux_3_13());
            c.connect_at(SimTime::ZERO, Addr::new(srv, 5001));
            sim.set_agent(cli, c);
        }
        sim.run_until(SimTime::from_secs(secs));
        (sim, d)
    }

    #[test]
    fn download_utilises_bottleneck() {
        let (sim, d) = download_sim(10);
        let g1 = sim.agent::<DccpHost>(d.client1).unwrap().total_goodput();
        let g2 = sim.agent::<DccpHost>(d.client2).unwrap().total_goodput();
        let total = g1 + g2;
        assert!(total > 6_000_000, "utilisation too low: {total}");
        assert!(total < 13_500_000, "above line rate: {total}");
    }

    #[test]
    fn competing_flows_share_fairly() {
        let (sim, d) = download_sim(20);
        let a = sim.agent::<DccpHost>(d.client1).unwrap().total_goodput() as f64;
        let b = sim.agent::<DccpHost>(d.client2).unwrap().total_goodput() as f64;
        let ratio = a.max(b) / a.min(b).max(1.0);
        assert!(ratio < 2.0, "unfair: {a} vs {b}");
    }

    #[test]
    fn clean_close_releases_sockets() {
        let (mut sim, d) = download_sim(5);
        for node in [d.server1, d.server2] {
            sim.schedule_control(SimTime::from_secs(5), node, |agent, ctx| {
                let any: &mut dyn std::any::Any = agent;
                any.downcast_mut::<DccpHost>().unwrap().close_all(ctx);
            });
        }
        sim.run_until(SimTime::from_secs(30));
        for node in [d.server1, d.server2] {
            let census = sim.agent::<DccpHost>(node).unwrap().census();
            assert_eq!(census.leaked(), 0, "{}: {census:?}", sim.node_name(node));
        }
    }

    #[test]
    fn parse_packet_keeps_every_header_check() {
        use snake_packet::dccp::DccpPacketType;
        let packet = |header: Vec<u8>| {
            let node = snake_netsim::NodeId::from_index(0);
            Packet::new(
                Addr::new(node, 40_000),
                Addr::new(node, 5001),
                Protocol::Dccp,
                header,
                7,
            )
        };
        let good = DccpBuilder::new(40_000, 5001, DccpPacketType::DataAck)
            .seq(11)
            .ack(22)
            .build();
        let seg = parse_packet(&packet(good.bytes().to_vec())).expect("well-formed header");
        assert_eq!((seg.seq, seg.ack, seg.payload_len), (11, 22, 7));

        assert!(
            parse_packet(&packet(good.bytes()[..23].to_vec())).is_none(),
            "23-byte header"
        );
        for (field, value) in [("type", 10), ("type", 15), ("checksum", 1)] {
            let mut mutated = good.clone();
            mutated.set(field, value).unwrap();
            assert!(
                parse_packet(&packet(mutated.into_bytes())).is_none(),
                "{field} = {value}"
            );
        }
    }

    /// Overwrites the acknowledgment number of client→server packets once
    /// the connection is established (the Acknowledgment-Mung attack,
    /// paper §VI-B.1 — SNAKE applies it per `(OPEN, ACK)` pair).
    struct AckMungTap;
    impl Tap for AckMungTap {
        fn on_packet(&mut self, ctx: &mut TapCtx<'_>, mut packet: Packet, toward_b: bool) {
            if toward_b && ctx.now() > SimTime::from_secs(2) {
                let spec = snake_packet::dccp::dccp_spec();
                if let Ok(mut hdr) = spec.parse(packet.header.to_vec()) {
                    let _ = hdr.set("ack", (1u64 << 48) - 1);
                    packet.header = hdr.into_bytes().into();
                }
            }
            ctx.forward(packet, toward_b);
        }
    }

    #[test]
    fn ack_mung_wedges_server_at_minimum_rate() {
        let mut sim = Simulator::new(21);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        let mut s = DccpHost::new(DccpProfile::linux_3_13());
        s.listen(5001, DccpServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server1, s);
        let mut c = DccpHost::new(DccpProfile::linux_3_13());
        c.connect_at(SimTime::ZERO, Addr::new(d.server1, 5001));
        sim.set_agent(d.client1, c);
        sim.attach_tap(d.proxy_link, AckMungTap);

        sim.schedule_control(SimTime::from_secs(5), d.server1, |agent, ctx| {
            let any: &mut dyn std::any::Any = agent;
            any.downcast_mut::<DccpHost>().unwrap().close_all(ctx);
        });
        sim.run_until(SimTime::from_secs(35));

        let server = sim.agent::<DccpHost>(d.server1).unwrap();
        let census = server.census();
        assert!(census.leaked() > 0, "socket held open: {census:?}");
        let m = &server.conn_metrics()[0];
        assert!(m.rto_events > 0, "driven to timeout-paced sending: {m:?}");
        assert!(m.state != DccpState::Closed);
    }
}
