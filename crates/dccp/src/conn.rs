use std::collections::VecDeque;

use snake_netsim::{SimDuration, SimTime};
use snake_packet::dccp::DccpPacketType;

use crate::profile::DccpProfile;
use crate::seq48;
use crate::PACKET_PAYLOAD;

/// The DCCP connection states (RFC 4340 §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum DccpState {
    Closed,
    Listen,
    Request,
    Respond,
    PartOpen,
    Open,
    CloseReq,
    Closing,
    TimeWait,
}

impl DccpState {
    /// The state's conventional name (matches the built-in dot machine).
    pub fn name(&self) -> &'static str {
        match self {
            DccpState::Closed => "CLOSED",
            DccpState::Listen => "LISTEN",
            DccpState::Request => "REQUEST",
            DccpState::Respond => "RESPOND",
            DccpState::PartOpen => "PARTOPEN",
            DccpState::Open => "OPEN",
            DccpState::CloseReq => "CLOSEREQ",
            DccpState::Closing => "CLOSING",
            DccpState::TimeWait => "TIMEWAIT",
        }
    }
}

impl std::fmt::Display for DccpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoded DCCP packet: the fields the engine acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DccpSeg {
    /// Packet type.
    pub ptype: DccpPacketType,
    /// 48-bit sequence number.
    pub seq: u64,
    /// 48-bit acknowledgment number (meaningful when
    /// [`DccpPacketType::carries_ack`]).
    pub ack: u64,
    /// Cumulative count of packets the receiver observed missing, echoed
    /// on acknowledgments — this reproduction's compressed stand-in for
    /// CCID-2's ack vector (carried in the header's `ack_reserved` field).
    pub loss_echo: u16,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// Effects a [`DccpConnection`] asks its host to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DccpConnEvent {
    /// Transmit this packet to the peer.
    Transmit(DccpSeg),
    /// (Re-)arm the CCID-2 transmit timeout.
    ArmRto(SimDuration),
    /// Cancel the transmit timeout.
    CancelRto,
    /// (Re-)arm the state-machine retransmission timer (REQUEST, PARTOPEN
    /// ack, CLOSE).
    ArmRtx(SimDuration),
    /// Cancel the state-machine retransmission timer.
    CancelRtx,
    /// Arm the TIMEWAIT timer.
    ArmTimeWait(SimDuration),
    /// The handshake completed (client side entered OPEN).
    Connected,
    /// The handshake completed (server side entered OPEN).
    Accepted,
    /// `n` new payload bytes arrived (DCCP is unreliable: this is goodput,
    /// not in-order delivery).
    DeliverData(u32),
    /// The connection was torn down abnormally.
    Reset(&'static str),
    /// The connection closed cleanly.
    Finished,
}

/// One DCCP connection endpoint: RFC 4340 lifecycle and sequencing with
/// CCID-2 congestion control.
#[derive(Debug, Clone)]
pub struct DccpConnection {
    profile: DccpProfile,
    state: DccpState,

    /// Greatest sequence number sent. Every packet increments it.
    gss: u64,
    /// Greatest valid sequence number received.
    gsr: u64,
    /// Initial sequence number.
    iss: u64,

    // Sender: application queue and CCID-2.
    app_remaining: u64,
    queue: VecDeque<u32>,
    unacked: VecDeque<u64>,
    cwnd: f64,
    ssthresh: f64,
    congestion_recover: u64,
    closing: bool,
    close_sent: bool,

    // RTT / timeout.
    srtt: Option<f64>,
    rttvar: f64,
    rto_base: SimDuration,
    backoff: u32,
    rtt_sample: Option<(u64, SimTime)>,

    // Receiver.
    data_since_ack: u32,
    goodput: u64,
    last_sync_at: SimTime,
    /// Cumulative count of sequence-number gaps observed (packets missing
    /// below GSR) — echoed to the sender on every acknowledgment.
    missing_seen: u64,
    /// Last loss echo consumed from the peer's acknowledgments.
    last_loss_echo: Option<u16>,

    // State-machine retransmissions.
    rtx_count: u32,

    // Counters.
    packets_sent: u64,
    packets_received: u64,
    syncs_sent: u64,
    resets_sent: u64,
    loss_events: u64,
    rto_events: u64,
}

impl DccpConnection {
    /// Creates a client endpoint; call [`open`](DccpConnection::open) to
    /// send the REQUEST.
    pub fn client(profile: DccpProfile, iss: u64) -> DccpConnection {
        DccpConnection::with_state(profile, iss, DccpState::Closed)
    }

    /// Creates a server endpoint awaiting a REQUEST.
    pub fn server(profile: DccpProfile, iss: u64) -> DccpConnection {
        DccpConnection::with_state(profile, iss, DccpState::Listen)
    }

    fn with_state(profile: DccpProfile, iss: u64, state: DccpState) -> DccpConnection {
        let iss = seq48::mask(iss);
        let cwnd = profile.initial_cwnd_packets as f64;
        DccpConnection {
            profile,
            state,
            gss: seq48::sub(iss, 1),
            gsr: 0,
            iss,
            app_remaining: 0,
            queue: VecDeque::new(),
            unacked: VecDeque::new(),
            cwnd,
            ssthresh: f64::MAX,
            congestion_recover: seq48::sub(iss, 1),
            closing: false,
            close_sent: false,
            srtt: None,
            rttvar: 0.0,
            rto_base: SimDuration::from_secs(1),
            backoff: 0,
            rtt_sample: None,
            data_since_ack: 0,
            goodput: 0,
            last_sync_at: SimTime::ZERO,
            missing_seen: 0,
            last_loss_echo: None,
            rtx_count: 0,
            packets_sent: 0,
            packets_received: 0,
            syncs_sent: 0,
            resets_sent: 0,
            loss_events: 0,
            rto_events: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DccpState {
        self.state
    }

    /// Payload bytes received (goodput).
    pub fn goodput(&self) -> u64 {
        self.goodput
    }

    /// Packets currently in the application send queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Application bytes not yet queued.
    pub fn app_remaining(&self) -> u64 {
        self.app_remaining
    }

    /// Current congestion window in packets.
    pub fn cwnd_packets(&self) -> u32 {
        self.cwnd as u32
    }

    /// Packets sent.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Packets received and processed.
    pub fn packets_received(&self) -> u64 {
        self.packets_received
    }

    /// SYNC packets sent (resynchronisation pressure).
    pub fn syncs_sent(&self) -> u64 {
        self.syncs_sent
    }

    /// Loss events inferred by CCID-2.
    pub fn loss_events(&self) -> u64 {
        self.loss_events
    }

    /// Transmit timeouts taken.
    pub fn rto_events(&self) -> u64 {
        self.rto_events
    }

    /// Greatest sequence number sent so far.
    pub fn gss(&self) -> u64 {
        self.gss
    }

    /// Greatest valid sequence number received so far.
    pub fn gsr(&self) -> u64 {
        self.gsr
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Client: send the REQUEST and enter REQUEST state.
    pub fn open(&mut self, out: &mut Vec<DccpConnEvent>) {
        debug_assert_eq!(self.state, DccpState::Closed);
        self.state = DccpState::Request;
        self.emit(out, DccpPacketType::Request, 0, 0);
        out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
    }

    /// Queues application data (split into fixed-size packets).
    pub fn app_send(&mut self, bytes: u64, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        self.app_remaining = self.app_remaining.saturating_add(bytes);
        self.try_send(now, out);
    }

    /// Application close. DCCP refuses to send CLOSE until the send queue
    /// has fully drained (paper §VI-B.1) — data still waiting keeps the
    /// socket alive at whatever rate congestion control allows.
    pub fn app_close(&mut self, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        match self.state {
            DccpState::Closed | DccpState::TimeWait | DccpState::Listen => {}
            DccpState::Request => {
                self.state = DccpState::Closed;
                out.push(DccpConnEvent::CancelRtx);
                out.push(DccpConnEvent::Finished);
            }
            _ => {
                self.closing = true;
                // Unqueued application data is discarded, but the queue
                // itself must drain.
                self.app_remaining = 0;
                self.try_send(now, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// CCID-2 transmit timeout: no acknowledgment progress. DCCP never
    /// retransmits data — outstanding packets are written off and the
    /// window collapses to one packet, the "minimum rate" of the
    /// Acknowledgment-Mung attack.
    pub fn on_rto(&mut self, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        if self.unacked.is_empty() {
            return;
        }
        self.rto_events += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.unacked.clear();
        self.rtt_sample = None;
        self.backoff += 1;
        self.congestion_recover = self.gss;
        self.try_send(now, out);
        if !self.unacked.is_empty() {
            out.push(DccpConnEvent::ArmRto(self.rto_interval()));
        } else {
            out.push(DccpConnEvent::CancelRto);
        }
        // The queue may now be drainable for a pending CLOSE.
        self.maybe_send_close(out);
    }

    /// State-machine retransmission timer (REQUEST / PARTOPEN ack / CLOSE).
    pub fn on_rtx(&mut self, _now: SimTime, out: &mut Vec<DccpConnEvent>) {
        match self.state {
            DccpState::Request => {
                self.rtx_count += 1;
                if self.rtx_count > self.profile.request_retries {
                    self.state = DccpState::Closed;
                    out.push(DccpConnEvent::Reset("request timed out"));
                    return;
                }
                self.emit(out, DccpPacketType::Request, 0, 0);
                out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
            }
            DccpState::Respond => {
                self.rtx_count += 1;
                if self.rtx_count > self.profile.request_retries {
                    self.state = DccpState::Closed;
                    out.push(DccpConnEvent::Reset("respond timed out"));
                    return;
                }
                self.emit_ack(out, DccpPacketType::Response, 0);
                out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
            }
            DccpState::PartOpen => {
                self.rtx_count += 1;
                if self.rtx_count > self.profile.request_retries {
                    self.state = DccpState::Closed;
                    out.push(DccpConnEvent::Reset("partopen timed out"));
                    return;
                }
                self.emit_ack(out, DccpPacketType::Ack, 0);
                out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
            }
            DccpState::Closing | DccpState::CloseReq if self.close_sent => {
                self.rtx_count += 1;
                if self.rtx_count > self.profile.close_retries {
                    self.state = DccpState::Closed;
                    out.push(DccpConnEvent::Reset("close retries exhausted"));
                    return;
                }
                self.emit_ack(out, DccpPacketType::Close, 0);
                out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
            }
            _ => {}
        }
    }

    /// The TIMEWAIT timer fired.
    pub fn on_time_wait_expiry(&mut self, out: &mut Vec<DccpConnEvent>) {
        if self.state == DccpState::TimeWait {
            self.state = DccpState::Closed;
            out.push(DccpConnEvent::Finished);
        }
    }

    // ------------------------------------------------------------------
    // Packet processing
    // ------------------------------------------------------------------

    /// Processes one arriving packet.
    pub fn on_packet(&mut self, seg: DccpSeg, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        self.packets_received += 1;
        match self.state {
            DccpState::Closed | DccpState::TimeWait => {
                if seg.ptype != DccpPacketType::Reset {
                    self.send_reset(out);
                }
            }
            DccpState::Listen => self.on_packet_listen(seg, out),
            DccpState::Request => self.on_packet_request(seg, out),
            DccpState::Respond => self.on_packet_respond(seg, now, out),
            _ => self.on_packet_sync_states(seg, now, out),
        }
    }

    fn on_packet_listen(&mut self, seg: DccpSeg, out: &mut Vec<DccpConnEvent>) {
        match seg.ptype {
            DccpPacketType::Request => {
                self.gsr = seg.seq;
                self.state = DccpState::Respond;
                self.emit_ack(out, DccpPacketType::Response, 0);
                out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
            }
            DccpPacketType::Reset => {}
            _ => self.send_reset(out),
        }
    }

    /// REQUEST state: both the RFC 4340 §8.5 pseudocode and Linux 3.13
    /// check the packet *type* before validating sequence numbers, so any
    /// non-RESPONSE packet with completely arbitrary sequence and
    /// acknowledgment numbers resets the nascent connection — the
    /// REQUEST-Connection-Termination attack (paper §VI-B.3).
    fn on_packet_request(&mut self, seg: DccpSeg, out: &mut Vec<DccpConnEvent>) {
        let type_ok = matches!(seg.ptype, DccpPacketType::Response | DccpPacketType::Reset);
        let ack_ok = seg.ack == self.gss;

        if !self.profile.type_check_before_seq {
            // The mitigated ordering: silently drop anything whose
            // acknowledgment doesn't prove knowledge of our REQUEST.
            if !ack_ok && seg.ptype != DccpPacketType::Reset {
                return;
            }
        }
        if !type_ok {
            self.send_reset(out);
            self.state = DccpState::Closed;
            out.push(DccpConnEvent::CancelRtx);
            out.push(DccpConnEvent::Reset("non-RESPONSE packet in REQUEST"));
            return;
        }
        match seg.ptype {
            DccpPacketType::Reset => {
                self.state = DccpState::Closed;
                out.push(DccpConnEvent::CancelRtx);
                out.push(DccpConnEvent::Reset("reset during handshake"));
            }
            DccpPacketType::Response => {
                if !ack_ok {
                    return;
                }
                self.gsr = seg.seq;
                self.state = DccpState::PartOpen;
                self.rtx_count = 0;
                self.emit_ack(out, DccpPacketType::Ack, 0);
                out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
            }
            _ => unreachable!("type_ok guarantees Response or Reset"),
        }
    }

    fn on_packet_respond(&mut self, seg: DccpSeg, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        match seg.ptype {
            DccpPacketType::Request => {
                // Retransmitted REQUEST: answer again.
                self.gsr = seg.seq;
                self.emit_ack(out, DccpPacketType::Response, 0);
            }
            DccpPacketType::Reset if self.seq_valid(seg.seq) => {
                self.state = DccpState::Closed;
                out.push(DccpConnEvent::CancelRtx);
                out.push(DccpConnEvent::Reset("reset during handshake"));
            }
            // The ack must cover one of our RESPONSEs (several may be
            // outstanding when the REQUEST was duplicated or
            // retransmitted).
            DccpPacketType::Ack | DccpPacketType::DataAck
                if seq48::between(seg.ack, self.iss, self.gss) && self.seq_valid(seg.seq) =>
            {
                self.gsr = seg.seq;
                self.state = DccpState::Open;
                self.rtx_count = 0;
                out.push(DccpConnEvent::CancelRtx);
                out.push(DccpConnEvent::Accepted);
                if seg.payload_len > 0 {
                    self.receive_payload(&seg, out);
                }
                self.try_send(now, out);
            }
            _ => {}
        }
    }

    fn on_packet_sync_states(&mut self, seg: DccpSeg, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        // PARTOPEN completes on any valid packet from the peer.
        if self.state == DccpState::PartOpen
            && self.seq_valid(seg.seq)
            && seg.ptype != DccpPacketType::Reset
        {
            self.state = DccpState::Open;
            self.rtx_count = 0;
            out.push(DccpConnEvent::CancelRtx);
            out.push(DccpConnEvent::Connected);
        }

        match seg.ptype {
            DccpPacketType::Reset => {
                if self.seq_valid(seg.seq) {
                    let was_closing = self.state == DccpState::Closing;
                    out.push(DccpConnEvent::CancelRto);
                    out.push(DccpConnEvent::CancelRtx);
                    if was_closing {
                        // Our CLOSE was answered: normal teardown.
                        self.state = DccpState::TimeWait;
                        out.push(DccpConnEvent::ArmTimeWait(self.profile.time_wait));
                    } else {
                        self.state = DccpState::Closed;
                        out.push(DccpConnEvent::Reset("peer reset"));
                    }
                }
            }
            DccpPacketType::Sync => {
                // Answer with a SyncAck echoing the Sync's own sequence
                // number — but only if its acknowledgment is plausible.
                if self.ack_plausible(seg.ack) {
                    if self.seq_valid(seg.seq) {
                        self.gsr = seg.seq;
                    }
                    self.emit(out, DccpPacketType::SyncAck, seg.seq, 0);
                }
            }
            DccpPacketType::SyncAck => {
                if self.ack_plausible(seg.ack) {
                    // Resynchronise on the peer's current sequence number.
                    self.gsr = seg.seq;
                    self.process_ack(&seg, now, out);
                }
            }
            DccpPacketType::Request | DccpPacketType::Response => {
                // Stale handshake packet: per RFC, answer with Sync.
                self.send_sync(now, out);
            }
            DccpPacketType::Data | DccpPacketType::Ack | DccpPacketType::DataAck => {
                if !self.seq_valid(seg.seq) {
                    self.send_sync(now, out);
                    return;
                }
                if seg.ptype.carries_ack() && !self.ack_plausible(seg.ack) {
                    // Acknowledges packets never sent (paper §VI-B.2):
                    // drop the whole packet and force a resync.
                    self.send_sync(now, out);
                    return;
                }
                if seq48::gt(seg.seq, self.gsr) {
                    // Sequence gaps below the new GSR are packets that
                    // went missing; the count feeds the loss echo.
                    let gap = seq48::sub(seg.seq, self.gsr).saturating_sub(1);
                    self.missing_seen += gap;
                    self.gsr = seg.seq;
                }
                if seg.ptype.carries_ack() {
                    self.process_ack(&seg, now, out);
                }
                if seg.payload_len > 0 {
                    self.receive_payload(&seg, out);
                }
            }
            DccpPacketType::Close => {
                if self.seq_valid(seg.seq) {
                    self.gsr = seg.seq;
                    // Answer with Reset(code: closed) and free the socket.
                    self.send_reset(out);
                    self.state = DccpState::Closed;
                    out.push(DccpConnEvent::CancelRto);
                    out.push(DccpConnEvent::CancelRtx);
                    out.push(DccpConnEvent::Finished);
                }
            }
            DccpPacketType::CloseReq => {
                if self.seq_valid(seg.seq) && self.state == DccpState::Open {
                    self.gsr = seg.seq;
                    self.state = DccpState::Closing;
                    self.close_sent = true;
                    self.rtx_count = 0;
                    self.emit_ack(out, DccpPacketType::Close, 0);
                    out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Sender: CCID-2
    // ------------------------------------------------------------------

    fn try_send(&mut self, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        if !matches!(self.state, DccpState::Open) {
            return;
        }
        // The application refills the bounded send queue.
        while self.queue.len() < self.profile.tx_qlen && self.app_remaining > 0 {
            let chunk = (self.app_remaining).min(PACKET_PAYLOAD as u64) as u32;
            self.app_remaining -= chunk as u64;
            self.queue.push_back(chunk);
        }
        let was_empty = self.unacked.is_empty();
        let mut sent = false;
        while (self.unacked.len() as f64) < self.cwnd && !self.queue.is_empty() {
            let payload = self.queue.pop_front().expect("non-empty");
            self.emit_ack(out, DccpPacketType::DataAck, payload);
            self.unacked.push_back(self.gss);
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.gss, now));
            }
            sent = true;
        }
        if sent && was_empty {
            out.push(DccpConnEvent::ArmRto(self.rto_interval()));
        }
        self.maybe_send_close(out);
    }

    fn maybe_send_close(&mut self, out: &mut Vec<DccpConnEvent>) {
        if self.closing && !self.close_sent && self.queue.is_empty() && self.app_remaining == 0 {
            self.close_sent = true;
            self.state = DccpState::Closing;
            self.rtx_count = 0;
            self.emit_ack(out, DccpPacketType::Close, 0);
            out.push(DccpConnEvent::CancelRto);
            out.push(DccpConnEvent::ArmRtx(self.rtx_interval()));
        }
    }

    /// CCID-2 acknowledgment processing. The acknowledgment number reports
    /// the greatest sequence number the peer has received; the loss echo
    /// (the compressed ack-vector stand-in) reports how many packets it
    /// observed missing. New losses trigger at most one window halving per
    /// round trip of data, mirroring RFC 4341 §5.
    fn process_ack(&mut self, seg: &DccpSeg, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        let ack = seg.ack;
        let mut progressed = false;
        while let Some(&head) = self.unacked.front() {
            if seq48::gt(head, ack) {
                break;
            }
            self.unacked.pop_front();
            progressed = true;
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
            if let Some((target, sent_at)) = self.rtt_sample {
                if seq48::ge(ack, target) {
                    self.update_rtt(now.since(sent_at).as_secs_f64());
                    self.rtt_sample = None;
                }
            }
        }
        // Loss echo delta → congestion event (once per recovery window).
        let new_losses = match self.last_loss_echo {
            None => 0,
            Some(prev) => seg.loss_echo.wrapping_sub(prev) as u64,
        };
        self.last_loss_echo = Some(seg.loss_echo);
        if new_losses > 0 {
            self.loss_events += new_losses;
            if seq48::gt(ack, self.congestion_recover) || seq48::ge(ack, self.congestion_recover) {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.congestion_recover = self.gss;
            }
        }
        if progressed {
            self.backoff = 0;
            if self.unacked.is_empty() {
                out.push(DccpConnEvent::CancelRto);
            } else {
                out.push(DccpConnEvent::ArmRto(self.rto_interval()));
            }
            self.try_send(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Receiver
    // ------------------------------------------------------------------

    fn receive_payload(&mut self, seg: &DccpSeg, out: &mut Vec<DccpConnEvent>) {
        self.goodput += seg.payload_len as u64;
        out.push(DccpConnEvent::DeliverData(seg.payload_len));
        self.data_since_ack += 1;
        if self.data_since_ack >= self.profile.ack_ratio {
            self.data_since_ack = 0;
            self.emit_ack(out, DccpPacketType::Ack, 0);
        }
    }

    // ------------------------------------------------------------------
    // Validity windows (RFC 4340 §7.5)
    // ------------------------------------------------------------------

    /// Sequence validity: `SWL = GSR + 1 - W/4`, `SWH = GSR + 1 + 3W/4`.
    fn seq_valid(&self, seq: u64) -> bool {
        let w = self.profile.seq_window;
        let swl = seq48::sub(seq48::add(self.gsr, 1), w / 4);
        let swh = seq48::add(seq48::add(self.gsr, 1), 3 * w / 4);
        seq48::between(seq, swl, swh)
    }

    /// Acknowledgment plausibility: `AWL = GSS - W + 1`, `AWH = GSS`. An
    /// acknowledgment outside this window refers to packets we never sent.
    fn ack_plausible(&self, ack: u64) -> bool {
        let w = self.profile.seq_window;
        let awl = seq48::sub(self.gss, w.saturating_sub(1));
        seq48::between(ack, awl, self.gss)
    }

    // ------------------------------------------------------------------
    // Emission
    // ------------------------------------------------------------------

    fn next_seq(&mut self) -> u64 {
        self.gss = seq48::add(self.gss, 1);
        self.gss
    }

    /// Emits a packet whose acknowledgment field mirrors GSR and whose
    /// loss echo reports the gaps observed so far.
    fn emit_ack(&mut self, out: &mut Vec<DccpConnEvent>, ptype: DccpPacketType, payload: u32) {
        let ack = self.gsr;
        self.emit(out, ptype, ack, payload);
    }

    fn emit(
        &mut self,
        out: &mut Vec<DccpConnEvent>,
        ptype: DccpPacketType,
        ack: u64,
        payload: u32,
    ) {
        let seq = self.next_seq();
        self.packets_sent += 1;
        out.push(DccpConnEvent::Transmit(DccpSeg {
            ptype,
            seq,
            ack,
            loss_echo: self.missing_seen as u16,
            payload_len: payload,
        }));
    }

    /// Sends a Sync asking the peer to restate its sequence position,
    /// rate-limited to one per RTT-ish interval to avoid sync storms.
    fn send_sync(&mut self, now: SimTime, out: &mut Vec<DccpConnEvent>) {
        let min_gap = SimDuration::from_millis(10);
        if now.since(self.last_sync_at) < min_gap && self.last_sync_at != SimTime::ZERO {
            return;
        }
        self.last_sync_at = now;
        self.syncs_sent += 1;
        self.emit_ack(out, DccpPacketType::Sync, 0);
    }

    fn send_reset(&mut self, out: &mut Vec<DccpConnEvent>) {
        self.resets_sent += 1;
        self.emit_ack(out, DccpPacketType::Reset, 0);
    }

    fn update_rtt(&mut self, sample: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
        let rto = SimDuration::from_secs_f64(self.srtt.expect("set") + 4.0 * self.rttvar);
        self.rto_base = rto.max(self.profile.min_rto).min(self.profile.max_rto);
    }

    fn rto_interval(&self) -> SimDuration {
        self.rto_base
            .saturating_mul(1u64 << self.backoff.min(16))
            .max(self.profile.min_rto)
            .min(self.profile.max_rto)
    }

    fn rtx_interval(&self) -> SimDuration {
        SimDuration::from_millis(400).saturating_mul(1u64 << self.rtx_count.min(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DccpProfile {
        DccpProfile::linux_3_13()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn transmits(events: &[DccpConnEvent]) -> Vec<DccpSeg> {
        events
            .iter()
            .filter_map(|e| match e {
                DccpConnEvent::Transmit(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    fn open_pair() -> (DccpConnection, DccpConnection) {
        let mut client = DccpConnection::client(profile(), 100);
        let mut server = DccpConnection::server(profile(), 9_000);
        let mut out = Vec::new();

        client.open(&mut out);
        let req = transmits(&out)[0];
        assert_eq!(req.ptype, DccpPacketType::Request);
        assert_eq!(client.state(), DccpState::Request);
        out.clear();

        server.on_packet(req, t(10), &mut out);
        let resp = transmits(&out)[0];
        assert_eq!(resp.ptype, DccpPacketType::Response);
        assert_eq!(resp.ack, req.seq);
        assert_eq!(server.state(), DccpState::Respond);
        out.clear();

        client.on_packet(resp, t(20), &mut out);
        assert_eq!(client.state(), DccpState::PartOpen);
        let ack = transmits(&out)[0];
        assert_eq!(ack.ptype, DccpPacketType::Ack);
        out.clear();

        server.on_packet(ack, t(30), &mut out);
        assert_eq!(server.state(), DccpState::Open);
        assert!(out.contains(&DccpConnEvent::Accepted));
        out.clear();

        // Server data completes the client's PARTOPEN.
        server.app_send(PACKET_PAYLOAD as u64, t(40), &mut out);
        let data = transmits(&out)[0];
        assert_eq!(data.ptype, DccpPacketType::DataAck);
        out.clear();
        client.on_packet(data, t(50), &mut out);
        assert_eq!(client.state(), DccpState::Open);
        assert!(out.contains(&DccpConnEvent::Connected));

        (client, server)
    }

    #[test]
    fn handshake_reaches_open() {
        let (c, s) = open_pair();
        assert_eq!(c.state(), DccpState::Open);
        assert_eq!(s.state(), DccpState::Open);
        assert_eq!(c.goodput(), PACKET_PAYLOAD as u64);
    }

    #[test]
    fn every_packet_increments_sequence_number() {
        let (_, mut server) = open_pair();
        let before = server.gss();
        let mut out = Vec::new();
        server.app_send(3 * PACKET_PAYLOAD as u64, t(60), &mut out);
        let segs = transmits(&out);
        assert_eq!(segs.len(), 2, "initial window is 3, one already used");
        assert_eq!(segs[0].seq, seq48::add(before, 1));
        assert_eq!(segs[1].seq, seq48::add(before, 2));
    }

    #[test]
    fn request_state_resets_on_any_other_packet_type() {
        // The REQUEST-Connection-Termination attack (paper §VI-B.3): the
        // type check precedes sequence validation, so ANY sequence and
        // acknowledgment numbers work.
        let mut client = DccpConnection::client(profile(), 100);
        let mut out = Vec::new();
        client.open(&mut out);
        out.clear();

        let bogus = DccpSeg {
            ptype: DccpPacketType::Sync,
            seq: 0xDEAD_BEEF,
            ack: 0x1234_5678,
            loss_echo: 0,
            payload_len: 0,
        };
        client.on_packet(bogus, t(10), &mut out);
        assert_eq!(client.state(), DccpState::Closed);
        assert!(out.iter().any(|e| matches!(e, DccpConnEvent::Reset(_))));
    }

    #[test]
    fn fixed_ordering_survives_bogus_packet_in_request() {
        let mut client = DccpConnection::client(DccpProfile::linux_3_13_seqcheck_fixed(), 100);
        let mut out = Vec::new();
        client.open(&mut out);
        out.clear();

        let bogus = DccpSeg {
            ptype: DccpPacketType::Sync,
            seq: 0xDEAD_BEEF,
            ack: 0x1234_5678,
            loss_echo: 0,
            payload_len: 0,
        };
        client.on_packet(bogus, t(10), &mut out);
        assert_eq!(client.state(), DccpState::Request, "bogus packet ignored");
    }

    #[test]
    fn in_window_reset_kills_open_connection() {
        let (mut client, _server) = open_pair();
        let mut out = Vec::new();
        let rst = DccpSeg {
            ptype: DccpPacketType::Reset,
            seq: seq48::add(client.gsr(), 1),
            ack: 0,
            loss_echo: 0,
            payload_len: 0,
        };
        client.on_packet(rst, t(100), &mut out);
        assert_eq!(client.state(), DccpState::Closed);
    }

    #[test]
    fn far_out_of_window_reset_is_ignored() {
        let (mut client, _server) = open_pair();
        let mut out = Vec::new();
        let rst = DccpSeg {
            ptype: DccpPacketType::Reset,
            seq: seq48::add(client.gsr(), 1_000_000),
            ack: 0,
            loss_echo: 0,
            payload_len: 0,
        };
        client.on_packet(rst, t(100), &mut out);
        assert_eq!(client.state(), DccpState::Open);
    }

    #[test]
    fn out_of_window_data_triggers_sync() {
        let (mut client, _server) = open_pair();
        let mut out = Vec::new();
        let wild = DccpSeg {
            ptype: DccpPacketType::DataAck,
            seq: seq48::add(client.gsr(), 500_000),
            ack: 0,
            loss_echo: 0,
            payload_len: PACKET_PAYLOAD,
        };
        client.on_packet(wild, t(100), &mut out);
        let sent = transmits(&out);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].ptype, DccpPacketType::Sync);
        assert_eq!(
            client.goodput(),
            PACKET_PAYLOAD as u64,
            "payload not delivered"
        );
    }

    #[test]
    fn implausible_ack_drops_packet_and_syncs() {
        // Paper §VI-B.2: data acknowledging packets never sent is dropped
        // and answered with a SYNC, costing the sender a whole window.
        let (mut client, server) = open_pair();
        let mut out = Vec::new();
        let evil = DccpSeg {
            ptype: DccpPacketType::DataAck,
            seq: seq48::add(client.gsr(), 1),
            ack: seq48::add(client.gss(), 50), // we never sent this
            loss_echo: 0,
            payload_len: PACKET_PAYLOAD,
        };
        let before = client.goodput();
        client.on_packet(evil, t(100), &mut out);
        assert_eq!(client.goodput(), before, "payload dropped");
        let sent = transmits(&out);
        assert_eq!(sent[0].ptype, DccpPacketType::Sync);
        let _ = server;
    }

    #[test]
    fn sync_syncack_resynchronises() {
        let (mut client, mut server) = open_pair();
        let mut out = Vec::new();
        // Client realises it is desynced and sends a Sync.
        let wild = DccpSeg {
            ptype: DccpPacketType::Data,
            seq: seq48::add(client.gsr(), 500_000),
            ack: 0,
            loss_echo: 0,
            payload_len: 10,
        };
        client.on_packet(wild, t(100), &mut out);
        let sync = transmits(&out)[0];
        assert_eq!(sync.ptype, DccpPacketType::Sync);
        out.clear();

        server.on_packet(sync, t(110), &mut out);
        let syncack = transmits(&out)[0];
        assert_eq!(syncack.ptype, DccpPacketType::SyncAck);
        assert_eq!(syncack.ack, sync.seq, "SyncAck echoes the Sync's seq");
        out.clear();

        client.on_packet(syncack, t(120), &mut out);
        assert_eq!(
            client.gsr(),
            syncack.seq,
            "resynchronised on peer's real seq"
        );
    }

    #[test]
    fn close_waits_for_send_queue_to_drain() {
        // Paper §VI-B.1: a DCCP sender will not close until its send queue
        // is empty.
        let (_client, mut server) = open_pair();
        let mut out = Vec::new();
        // Fill well beyond the window: cwnd 3, queue 10.
        server.app_send(20 * PACKET_PAYLOAD as u64, t(60), &mut out);
        assert!(server.queue_len() > 0);
        out.clear();

        server.app_close(t(70), &mut out);
        assert_eq!(server.state(), DccpState::Open, "still draining");
        assert!(transmits(&out)
            .iter()
            .all(|s| s.ptype != DccpPacketType::Close));
    }

    #[test]
    fn close_sent_once_queue_empties() {
        let (mut client, mut server) = open_pair();
        let mut out = Vec::new();
        // Fill beyond the congestion window so the queue holds packets.
        server.app_send(13 * PACKET_PAYLOAD as u64, t(60), &mut out);
        let mut data = transmits(&out);
        out.clear();
        server.app_close(t(70), &mut out);
        assert_eq!(server.state(), DccpState::Open, "queue still draining");
        out.clear();

        // Ack rounds: the queue drains as the window opens, and the CLOSE
        // follows the last data packet.
        for round in 0..10 {
            if server.state() == DccpState::Closing {
                break;
            }
            let mut acks = Vec::new();
            for d in &data {
                client.on_packet(*d, t(80 + round), &mut out);
            }
            for s in transmits(&out) {
                if s.ptype == DccpPacketType::Ack {
                    acks.push(s);
                }
            }
            out.clear();
            for a in acks {
                server.on_packet(a, t(90 + round), &mut out);
            }
            data = transmits(&out)
                .into_iter()
                .filter(|s| s.ptype == DccpPacketType::DataAck)
                .collect();
            out.clear();
        }
        assert_eq!(server.state(), DccpState::Closing);
        assert_eq!(server.queue_len(), 0);
    }

    #[test]
    fn close_reset_completes_teardown() {
        let (mut client, mut server) = open_pair();
        let mut out = Vec::new();
        server.app_close(t(60), &mut out);
        let close = transmits(&out)
            .into_iter()
            .find(|s| s.ptype == DccpPacketType::Close);
        let close = close.expect("close sent immediately with empty queue");
        assert_eq!(server.state(), DccpState::Closing);
        out.clear();

        client.on_packet(close, t(70), &mut out);
        assert_eq!(client.state(), DccpState::Closed);
        let rst = transmits(&out)[0];
        assert_eq!(rst.ptype, DccpPacketType::Reset);
        out.clear();

        server.on_packet(rst, t(80), &mut out);
        assert_eq!(server.state(), DccpState::TimeWait);
        server.on_time_wait_expiry(&mut out);
        assert_eq!(server.state(), DccpState::Closed);
    }

    #[test]
    fn rto_collapses_window_and_discards_unacked() {
        let (_client, mut server) = open_pair();
        let mut out = Vec::new();
        server.app_send(20 * PACKET_PAYLOAD as u64, t(60), &mut out);
        out.clear();
        let cwnd_before = server.cwnd_packets();
        server.on_rto(t(2_000), &mut out);
        assert_eq!(server.cwnd_packets(), 1, "minimum rate");
        assert!(cwnd_before > 1);
        assert_eq!(server.rto_events(), 1);
        // One new packet goes out (DCCP never retransmits old data).
        let sent = transmits(&out);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].ptype, DccpPacketType::DataAck);
    }

    #[test]
    fn loss_echo_halves_window() {
        // The receiver's loss echo (the compressed ack-vector stand-in)
        // drives CCID-2's congestion response.
        let (_client, mut server) = open_pair();
        let mut out = Vec::new();
        server.app_send(50 * PACKET_PAYLOAD as u64, t(60), &mut out);
        let data = transmits(&out);
        out.clear();

        // A clean ack first (grows the window and seeds the echo).
        let clean = DccpSeg {
            ptype: DccpPacketType::Ack,
            seq: seq48::add(server.gsr(), 1),
            ack: data[0].seq,
            loss_echo: 0,
            payload_len: 0,
        };
        server.on_packet(clean, t(100), &mut out);
        out.clear();
        let cwnd_before = server.cwnd_packets();

        // Then an ack reporting one newly observed gap.
        let lossy = DccpSeg {
            ptype: DccpPacketType::Ack,
            seq: seq48::add(server.gsr(), 1),
            ack: data.last().unwrap().seq,
            loss_echo: 1,
            payload_len: 0,
        };
        server.on_packet(lossy, t(120), &mut out);
        assert!(server.loss_events() >= 1, "loss reported via echo");
        assert!(server.cwnd_packets() < cwnd_before, "window halved");
    }

    #[test]
    fn receiver_counts_gaps_in_loss_echo() {
        let (mut client, mut server) = open_pair();
        let mut out = Vec::new();
        server.app_send(5 * PACKET_PAYLOAD as u64, t(60), &mut out);
        let data = transmits(&out);
        assert!(data.len() >= 2);
        out.clear();

        // Drop data[0]; deliver data[1]: the client observes a gap of one
        // and echoes it on its next acknowledgment.
        client.on_packet(data[1], t(100), &mut out);
        let acks: Vec<DccpSeg> = transmits(&out)
            .into_iter()
            .filter(|s| s.ptype == DccpPacketType::Ack)
            .collect();
        assert!(!acks.is_empty(), "ack generated");
        assert_eq!(acks[0].loss_echo, 1, "gap counted");
    }

    #[test]
    fn request_retransmits_then_gives_up() {
        let mut client = DccpConnection::client(profile(), 100);
        let mut out = Vec::new();
        client.open(&mut out);
        out.clear();
        for _ in 0..client.profile.request_retries {
            client.on_rtx(t(1_000), &mut out);
            assert_eq!(client.state(), DccpState::Request);
            assert_eq!(
                transmits(&out).last().unwrap().ptype,
                DccpPacketType::Request
            );
            out.clear();
        }
        client.on_rtx(t(60_000), &mut out);
        assert_eq!(client.state(), DccpState::Closed);
    }

    #[test]
    fn state_names_match_dot_machine() {
        for (state, name) in [
            (DccpState::Request, "REQUEST"),
            (DccpState::Respond, "RESPOND"),
            (DccpState::PartOpen, "PARTOPEN"),
            (DccpState::Open, "OPEN"),
            (DccpState::TimeWait, "TIMEWAIT"),
        ] {
            assert_eq!(state.name(), name);
        }
    }
}
