use snake_netsim::{SimDuration, SimTime};
use snake_packet::tcp::{TcpFlags, TcpPacketType};

use crate::profile::{AbortStyle, InvalidFlagPolicy, Profile};
use crate::seq;
use crate::MSS;

/// The DSACK marker carried in `urgent_ptr` (URG clear) by receivers whose
/// profile supports DSACK; see [`Profile::dsack`]. It tags acknowledgments
/// generated for fully-duplicate old segments.
pub const DSACK_MARKER: u16 = 1;

/// The SACK marker carried in `urgent_ptr` (URG clear) by SACK-capable
/// receivers on acknowledgments generated for out-of-order segments — the
/// fixed-header stand-in for a SACK block reporting a reception hole.
pub const SACK_MARKER: u16 = 2;

/// The TCP connection states of RFC 793.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum State {
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
    Closed,
}

impl State {
    /// The state's conventional upper-case name (matches the built-in dot
    /// state machine).
    pub fn name(&self) -> &'static str {
        match self {
            State::Listen => "LISTEN",
            State::SynSent => "SYN_SENT",
            State::SynReceived => "SYN_RECEIVED",
            State::Established => "ESTABLISHED",
            State::FinWait1 => "FIN_WAIT_1",
            State::FinWait2 => "FIN_WAIT_2",
            State::CloseWait => "CLOSE_WAIT",
            State::Closing => "CLOSING",
            State::LastAck => "LAST_ACK",
            State::TimeWait => "TIME_WAIT",
            State::Closed => "CLOSED",
        }
    }
}

impl std::fmt::Display for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoded TCP segment: the fields the engine acts on. Inbound segments
/// are decoded from raw header bytes by the host; outbound ones are encoded
/// back. Mutations made by the attack proxy therefore reach the engine
/// exactly as they would a real stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Urgent pointer (doubles as the DSACK marker carrier, see
    /// [`DSACK_MARKER`]).
    pub urgent_ptr: u16,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl Seg {
    /// Packet-type classification of this segment.
    pub fn packet_type(&self) -> TcpPacketType {
        TcpPacketType::classify(self.flags, self.payload_len)
    }
}

/// Effects a [`Connection`] asks its host to perform. The engine is a pure
/// state machine: it never touches the network or timers directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEvent {
    /// Transmit this segment to the peer.
    Transmit(Seg),
    /// (Re-)arm the retransmission timer to fire after this interval.
    ArmRto(SimDuration),
    /// Cancel the retransmission timer.
    CancelRto,
    /// Arm the TIME_WAIT (2·MSL) timer.
    ArmTimeWait(SimDuration),
    /// The three-way handshake completed (client side).
    Connected,
    /// The three-way handshake completed (server side).
    Accepted,
    /// `n` new in-order bytes were delivered to the application.
    DeliverData(u32),
    /// The peer's FIN arrived: it will send no more data.
    PeerClosed,
    /// The connection was torn down abnormally (RST received, handshake
    /// gave up, or retransmissions exhausted).
    Reset(&'static str),
    /// The connection closed cleanly and the socket can be reclaimed.
    Finished,
}

/// One TCP connection endpoint: RFC 793 lifecycle, New Reno congestion
/// control, RFC 6298 retransmission — parameterised by an implementation
/// [`Profile`].
#[derive(Debug, Clone)]
pub struct Connection {
    profile: Profile,
    state: State,

    // Send sequence space.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    app_queue: u64,
    fin_pending: bool,
    fin_seq: Option<u32>,
    aborted: bool,
    psh_counter: u32,

    // Receive sequence space.
    rcv_nxt: u32,
    rcv_wnd: u32,
    ooo: Vec<(u32, u32)>,
    delivered: u64,

    // Congestion control (bytes).
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    recover: u32,
    /// After an RTO, unacknowledged data below this mark is retransmitted
    /// as acks advance (slow-start retransmission), so one timeout does not
    /// cost one backed-off RTO per lost segment.
    rtx_until: Option<u32>,
    /// SACK-style recovery cursor: next sequence to retransmit during fast
    /// recovery, clocked forward by arriving acks.
    rtx_cursor: u32,

    // Retransmission.
    srtt: Option<f64>,
    rttvar: f64,
    rto_base: SimDuration,
    backoff: u32,
    retries: u32,
    rtt_sample: Option<(u32, SimTime)>,

    // Counters for tests and metrics.
    segs_sent: u64,
    segs_received: u64,
    retransmits: u64,
    rsts_sent: u64,
}

impl Connection {
    /// Creates a client endpoint in `CLOSED`; call
    /// [`open`](Connection::open) to start the handshake.
    pub fn client(profile: Profile, iss: u32) -> Connection {
        Connection::with_state(profile, iss, State::Closed)
    }

    /// Creates a server endpoint ready to process an incoming SYN (the host
    /// spawns one per accepted connection from its listener).
    pub fn server(profile: Profile, iss: u32) -> Connection {
        Connection::with_state(profile, iss, State::Listen)
    }

    fn with_state(profile: Profile, iss: u32, state: State) -> Connection {
        let cwnd = (profile.initial_cwnd_segments * MSS) as f64;
        Connection {
            profile,
            state,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 65_535,
            app_queue: 0,
            fin_pending: false,
            fin_seq: None,
            aborted: false,
            psh_counter: 0,
            rcv_nxt: 0,
            rcv_wnd: 65_535,
            ooo: Vec::new(),
            delivered: 0,
            cwnd,
            ssthresh: f64::MAX,
            dupacks: 0,
            in_recovery: false,
            recover: iss,
            rtx_until: None,
            rtx_cursor: iss,
            srtt: None,
            rttvar: 0.0,
            rto_base: SimDuration::from_secs(1),
            backoff: 0,
            retries: 0,
            rtt_sample: None,
            segs_sent: 0,
            segs_received: 0,
            retransmits: 0,
            rsts_sent: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Total in-order bytes delivered to the application.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Bytes sent but not yet acknowledged (includes a pending FIN).
    pub fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd as u32
    }

    /// Bytes queued by the application but not yet segmentized.
    pub fn app_queued(&self) -> u64 {
        self.app_queue
    }

    /// Segments transmitted (including retransmissions).
    pub fn segs_sent(&self) -> u64 {
        self.segs_sent
    }

    /// Segments received and processed.
    pub fn segs_received(&self) -> u64 {
        self.segs_received
    }

    /// Retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// RSTs emitted.
    pub fn rsts_sent(&self) -> u64 {
        self.rsts_sent
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Starts the client handshake: sends a SYN and enters SYN_SENT.
    pub fn open(&mut self, out: &mut Vec<ConnEvent>) {
        debug_assert_eq!(self.state, State::Closed);
        self.state = State::SynSent;
        self.snd_nxt = self.iss.wrapping_add(1);
        self.emit(out, TcpFlags::SYN, self.iss, 0, 0);
        self.arm_rto(out);
    }

    /// Queues `bytes` of application data for sending.
    pub fn app_send(&mut self, bytes: u64, now: SimTime, out: &mut Vec<ConnEvent>) {
        self.app_queue = self.app_queue.saturating_add(bytes);
        self.try_send(now, out);
    }

    /// Graceful application close: a FIN is sent once all queued data has
    /// been segmentized and window space allows (which is exactly what
    /// wedges a Linux server in CLOSE_WAIT when its in-flight data can
    /// never be acknowledged — paper §VI-A.1).
    pub fn app_close(&mut self, now: SimTime, out: &mut Vec<ConnEvent>) {
        match self.state {
            State::Established | State::CloseWait | State::SynReceived => {
                self.fin_pending = true;
                self.try_send(now, out);
            }
            State::SynSent | State::Closed => {
                self.state = State::Closed;
                out.push(ConnEvent::CancelRto);
                out.push(ConnEvent::Finished);
            }
            _ => {}
        }
    }

    /// Abortive close: the application died. Linux sends a FIN and answers
    /// all further data with RSTs; Windows sends a single RST.
    pub fn app_abort(&mut self, now: SimTime, out: &mut Vec<ConnEvent>) {
        if matches!(self.state, State::Closed | State::TimeWait | State::Listen) {
            return;
        }
        // Unsent data is discarded either way.
        self.app_queue = 0;
        match self.profile.abort_style {
            AbortStyle::FinThenRst => {
                self.aborted = true;
                if matches!(
                    self.state,
                    State::Established | State::SynReceived | State::CloseWait
                ) && self.fin_seq.is_none()
                {
                    let fin = self.snd_nxt;
                    self.fin_seq = Some(fin);
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.emit(out, TcpFlags::FIN_ACK, fin, self.rcv_nxt, 0);
                    self.state = match self.state {
                        State::CloseWait => State::LastAck,
                        _ => State::FinWait1,
                    };
                    self.arm_rto(out);
                }
                let _ = now;
            }
            AbortStyle::RstOnly => {
                self.send_rst(out, self.snd_nxt);
                self.state = State::Closed;
                out.push(ConnEvent::CancelRto);
                out.push(ConnEvent::Reset("local abort"));
            }
        }
    }

    // ------------------------------------------------------------------
    // Timer interface
    // ------------------------------------------------------------------

    /// The retransmission timer fired.
    pub fn on_rto(&mut self, now: SimTime, out: &mut Vec<ConnEvent>) {
        match self.state {
            State::SynSent => {
                self.retries += 1;
                if self.retries > self.profile.syn_retries {
                    self.state = State::Closed;
                    out.push(ConnEvent::Reset("handshake timed out"));
                    return;
                }
                self.backoff += 1;
                self.emit(out, TcpFlags::SYN, self.iss, 0, 0);
                self.retransmits += 1;
                self.arm_rto(out);
            }
            State::SynReceived => {
                self.retries += 1;
                if self.retries > self.profile.syn_retries {
                    self.state = State::Closed;
                    out.push(ConnEvent::Reset("handshake timed out"));
                    return;
                }
                self.backoff += 1;
                self.emit(out, TcpFlags::SYN_ACK, self.iss, self.rcv_nxt, 0);
                self.retransmits += 1;
                self.arm_rto(out);
            }
            State::Closed | State::Listen | State::TimeWait => {}
            _ => {
                if self.flight() == 0 {
                    // Persist timer: a zero advertised window with data
                    // waiting is probed (RFC 1122 §4.2.2.17), so a lost
                    // window update cannot deadlock the connection. The
                    // probe is a bare ACK; the peer's reply re-advertises
                    // its window.
                    if self.app_queue > 0
                        && self.snd_wnd == 0
                        && matches!(self.state, State::Established | State::CloseWait)
                    {
                        self.send_ack(out);
                        self.backoff = (self.backoff + 1).min(16);
                        self.arm_rto(out);
                    }
                    return;
                }
                self.retries += 1;
                if self.retries > self.profile.max_data_retries {
                    // Give up: the stack force-closes (Linux after 15
                    // retries, Windows after 5 — paper §VI-A.1).
                    self.state = State::Closed;
                    out.push(ConnEvent::CancelRto);
                    out.push(ConnEvent::Reset("retransmissions exhausted"));
                    return;
                }
                // Timeout congestion response: RFC 5681 §3.1.
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * MSS as f64);
                self.cwnd = MSS as f64;
                self.in_recovery = false;
                self.dupacks = 0;
                self.rtt_sample = None;
                self.backoff += 1;
                self.rtx_until = Some(self.snd_nxt);
                self.retransmit_head(now, out);
                self.arm_rto(out);
            }
        }
    }

    /// The TIME_WAIT (2·MSL) timer fired.
    pub fn on_time_wait_expiry(&mut self, out: &mut Vec<ConnEvent>) {
        if self.state == State::TimeWait {
            self.state = State::Closed;
            out.push(ConnEvent::Finished);
        }
    }

    // ------------------------------------------------------------------
    // Segment processing
    // ------------------------------------------------------------------

    /// Processes one arriving segment. This is the single entry point the
    /// host calls for every packet addressed to this connection.
    pub fn on_segment(&mut self, seg: Seg, now: SimTime, out: &mut Vec<ConnEvent>) {
        self.segs_received += 1;
        let ptype = seg.packet_type();

        // Invalid flag combinations go through the profile's policy first
        // (paper §VI-A.2).
        if ptype == TcpPacketType::Invalid {
            match self.profile.invalid_flags {
                InvalidFlagPolicy::Ignore => return,
                InvalidFlagPolicy::RstAlwaysWins => {
                    if seg.flags.rst {
                        self.process_rst(&seg, out);
                    }
                    return;
                }
                InvalidFlagPolicy::BestEffort => {
                    if seg.flags.count() == 0 {
                        // Linux 3.0.0 answers a null-flag packet with a
                        // duplicate acknowledgment — "a situation that is
                        // never valid" (paper §VI-A.2).
                        if self.synchronized() {
                            self.send_ack(out);
                        }
                        return;
                    }
                    // Otherwise fall through and interpret as best we can.
                }
            }
        }

        match self.state {
            State::Closed => {
                // RFC 793: anything to a closed connection gets a RST
                // (unless it is itself a RST).
                if !seg.flags.rst {
                    self.send_rst(out, seg.ack);
                }
            }
            State::Listen => self.on_segment_listen(seg, out),
            State::SynSent => self.on_segment_syn_sent(seg, now, out),
            _ => self.on_segment_synchronized(seg, ptype, now, out),
        }
    }

    fn on_segment_listen(&mut self, seg: Seg, out: &mut Vec<ConnEvent>) {
        if seg.flags.rst {
            return;
        }
        if seg.flags.syn && !seg.flags.ack {
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.snd_wnd = seg.window as u32;
            self.state = State::SynReceived;
            self.snd_nxt = self.iss.wrapping_add(1);
            self.emit(out, TcpFlags::SYN_ACK, self.iss, self.rcv_nxt, 0);
            self.arm_rto(out);
        } else if seg.flags.ack {
            self.send_rst(out, seg.ack);
        }
    }

    fn on_segment_syn_sent(&mut self, seg: Seg, now: SimTime, out: &mut Vec<ConnEvent>) {
        let ack_acceptable = seg.flags.ack && seg.ack == self.snd_nxt;
        if seg.flags.rst {
            if ack_acceptable {
                self.state = State::Closed;
                out.push(ConnEvent::CancelRto);
                out.push(ConnEvent::Reset("reset during handshake"));
            }
            return;
        }
        if seg.flags.syn && seg.flags.ack {
            if !ack_acceptable {
                self.send_rst(out, seg.ack);
                return;
            }
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.snd_una = seg.ack;
            self.snd_wnd = seg.window as u32;
            self.retries = 0;
            self.backoff = 0;
            self.state = State::Established;
            out.push(ConnEvent::CancelRto);
            out.push(ConnEvent::Connected);
            self.send_ack(out);
            self.try_send(now, out);
        } else if seg.flags.syn {
            // Simultaneous open (the reflect attack lands here — paper
            // §IV-C's TCP Simultaneous Open example).
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.state = State::SynReceived;
            self.emit(out, TcpFlags::SYN_ACK, self.iss, self.rcv_nxt, 0);
            self.arm_rto(out);
        }
    }

    fn on_segment_synchronized(
        &mut self,
        seg: Seg,
        _ptype: TcpPacketType,
        now: SimTime,
        out: &mut Vec<ConnEvent>,
    ) {
        // An aborted Linux endpoint answers any further data with RST
        // (paper §VI-A.1): the application is gone, the data undeliverable.
        if self.aborted && seg.payload_len > 0 {
            // The kernel still absorbs the segment's acknowledgment field
            // before rejecting the data: an arriving data packet whose ack
            // covers our FIN stops the FIN retransmission timer (so the
            // dead socket never provokes a pure duplicate ACK from the
            // peer).
            if seg.flags.ack && seq::gt(seg.ack, self.snd_una) && seq::le(seg.ack, self.snd_nxt) {
                self.snd_una = seg.ack;
                if let Some(fin) = self.fin_seq {
                    if seq::ge(seg.ack, fin.wrapping_add(1)) {
                        if self.state == State::FinWait1 {
                            self.state = State::FinWait2;
                        }
                        out.push(ConnEvent::CancelRto);
                    }
                }
            }
            // RFC 793: a reset in response to a segment with ACK set takes
            // its sequence number from that segment's acknowledgment field
            // (our own send sequence space as the peer sees it).
            let rst_seq = if seg.flags.ack { seg.ack } else { self.snd_nxt };
            self.send_rst(out, rst_seq);
            return;
        }

        // Step 1 (RFC 793 p. 69): sequence acceptability.
        let acceptable =
            seq::segment_acceptable(seg.seq, seg.payload_len, self.rcv_nxt, self.rcv_wnd);
        if !acceptable && !seg.flags.rst {
            // Old duplicate or out-of-window: acknowledge current state.
            self.send_dupack_for_old(out);
            return;
        }

        // Step 2: RST processing — any in-window RST kills the connection
        // (the brute-force Reset attack, paper §VI-A.4).
        if seg.flags.rst {
            self.process_rst(&seg, out);
            return;
        }

        // Step 4: SYN in window resets a synchronized connection
        // (the SYN-Reset attack, paper §VI-A.5).
        if seg.flags.syn {
            self.send_rst(out, seg.ack);
            self.state = State::Closed;
            out.push(ConnEvent::CancelRto);
            out.push(ConnEvent::Reset("in-window SYN"));
            return;
        }

        // Step 5: ACK processing. A valid ACK completes the server side of
        // the handshake first.
        if self.state == State::SynReceived && seg.flags.ack {
            if seg.ack == self.snd_nxt {
                self.snd_una = seg.ack;
                self.snd_wnd = seg.window as u32;
                self.retries = 0;
                self.backoff = 0;
                self.state = State::Established;
                out.push(ConnEvent::CancelRto);
                out.push(ConnEvent::Accepted);
            } else {
                self.send_rst(out, seg.ack);
                return;
            }
        }
        if seg.flags.ack && !self.process_ack(&seg, now, out) {
            return;
        }

        // Step 6: payload processing.
        if seg.payload_len > 0 {
            self.process_data(&seg, out);
        }

        // Step 7: FIN processing.
        if seg.flags.fin {
            self.process_fin(&seg, out);
        }

        self.try_send(now, out);
    }

    fn process_rst(&mut self, seg: &Seg, out: &mut Vec<ConnEvent>) {
        // In synchronized states a RST anywhere in the receive window is
        // honoured (RFC 793; the window-interval brute force of [Watson
        // 2004] exploits exactly this).
        let in_window = seq::in_window(seg.seq, self.rcv_nxt, self.rcv_wnd.max(1));
        if in_window || self.state == State::SynSent {
            self.state = State::Closed;
            out.push(ConnEvent::CancelRto);
            out.push(ConnEvent::Reset("peer reset"));
        }
    }

    /// Returns false if processing must stop (futuristic ACK).
    fn process_ack(&mut self, seg: &Seg, now: SimTime, out: &mut Vec<ConnEvent>) -> bool {
        let ack = seg.ack;
        if seq::gt(ack, self.snd_nxt) {
            // Acks data we never sent: RFC 793 says drop and re-ack.
            self.send_ack(out);
            return false;
        }

        if seq::gt(ack, self.snd_una) {
            let newly = ack.wrapping_sub(self.snd_una);
            self.snd_una = ack;
            self.snd_wnd = seg.window as u32;
            self.retries = 0;
            self.backoff = 0;

            if let Some((target, sent_at)) = self.rtt_sample {
                if seq::ge(ack, target) {
                    let sample = now.since(sent_at).as_secs_f64();
                    self.update_rtt(sample);
                    self.rtt_sample = None;
                }
            }

            if self.in_recovery {
                if seq::ge(ack, self.recover) {
                    // Full ack: leave fast recovery (RFC 6582).
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ack: retransmit the next hole (unless the
                    // SACK cursor already has), deflate.
                    if seq::ge(self.snd_una, self.rtx_cursor) || !self.profile.sack_recovery {
                        self.retransmit_head(now, out);
                        self.rtx_cursor = self.snd_una.wrapping_add(MSS);
                    } else {
                        self.sack_recovery_step(out);
                    }
                    self.cwnd = (self.cwnd - newly as f64 + MSS as f64).max(MSS as f64);
                    self.arm_rto(out);
                }
            } else {
                self.grow_cwnd();
                // Slow-start retransmission after a timeout: keep
                // retransmitting the next hole while acks advance below
                // the timeout mark.
                if let Some(mark) = self.rtx_until {
                    if seq::lt(self.snd_una, mark) && seq::lt(ack, mark) {
                        self.retransmit_head(now, out);
                        if self.cwnd >= 2.0 * MSS as f64
                            && seq::lt(self.snd_una.wrapping_add(MSS), mark)
                        {
                            self.retransmit_at(self.snd_una.wrapping_add(MSS), out);
                        }
                        self.arm_rto(out);
                    } else {
                        self.rtx_until = None;
                    }
                }
            }
            self.dupacks = 0;

            // Did this ack our FIN?
            if let Some(fin) = self.fin_seq {
                if seq::ge(ack, fin.wrapping_add(1)) {
                    self.on_fin_acked(out);
                }
            }

            if self.flight() == 0 {
                out.push(ConnEvent::CancelRto);
            } else {
                self.arm_rto(out);
            }
        } else if ack == self.snd_una {
            // Window update (RFC 793's SND.WL1/WL2 rule, simplified): a
            // same-ack segment with a different window is an update, not a
            // duplicate — and it can unblock a zero-window stall.
            let window_changed = self.snd_wnd != seg.window as u32;
            if window_changed {
                self.snd_wnd = seg.window as u32;
                self.try_send(now, out);
            }
            let pure_dup = !window_changed
                && seg.payload_len == 0
                && !seg.flags.syn
                && !seg.flags.fin
                && self.flight() > 0;
            if pure_dup {
                let marker = if seg.flags.urg { 0 } else { seg.urgent_ptr };
                // Windows 95 grows its window on *every* ack, duplicates
                // included (paper §VI-A.3): one full segment per
                // acknowledgment, with no duplicate or outstanding-data
                // check — Savage et al.'s DupACK-spoofing precondition.
                if self.profile.naive_ack_counting {
                    self.cwnd = (self.cwnd + MSS as f64).min(65_535.0 + MSS as f64);
                    self.try_send(now, out);
                }
                // RFC 6675 stacks only treat a duplicate as a loss
                // indication when it reports a genuine reception hole; the
                // others count every duplicate not marked as a DSACK.
                let counts = if self.profile.sack_loss_evidence {
                    marker == SACK_MARKER
                } else {
                    marker != DSACK_MARKER
                };
                if counts {
                    self.dupacks += 1;
                    if self.dupacks == 3 && !self.in_recovery {
                        self.enter_fast_recovery(now, out);
                    } else if self.in_recovery && self.dupacks > 3 {
                        if self.profile.sack_recovery {
                            // SACK recovery: retransmissions clocked by
                            // evidence-bearing acks; no blind inflation.
                            self.sack_recovery_step(out);
                        } else {
                            // Reno inflation: every further duplicate
                            // clocks out a brand-new segment — the lever
                            // behind duplicate-ACK spoofing (§VI-A.3).
                            self.cwnd += MSS as f64;
                            self.try_send(now, out);
                        }
                    }
                } else if self.in_recovery && marker == SACK_MARKER {
                    self.sack_recovery_step(out);
                }
            }
        }
        true
    }

    fn enter_fast_recovery(&mut self, now: SimTime, out: &mut Vec<ConnEvent>) {
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * MSS as f64);
        self.recover = self.snd_nxt;
        self.in_recovery = true;
        self.retransmit_head(now, out);
        self.rtx_cursor = self.snd_una.wrapping_add(MSS);
        if self.profile.harsh_dupack_response {
            // The rate limiter reads a duplicate-ACK burst as severe loss
            // and collapses the window outright (Windows 8.1).
            self.cwnd = 2.0 * MSS as f64;
            self.ssthresh = self.cwnd;
        } else {
            self.cwnd = self.ssthresh + 3.0 * MSS as f64;
        }
        self.rtt_sample = None;
        self.arm_rto(out);
    }

    /// During fast recovery, SACK-capable stacks use each arriving ack to
    /// clock out the next retransmission below the recovery point, healing
    /// a whole loss burst in about one round trip.
    fn sack_recovery_step(&mut self, out: &mut Vec<ConnEvent>) {
        if !self.profile.sack_recovery || !self.in_recovery {
            return;
        }
        if seq::lt(self.rtx_cursor, self.recover) && seq::ge(self.rtx_cursor, self.snd_una) {
            self.retransmit_at(self.rtx_cursor, out);
            self.rtx_cursor = self.rtx_cursor.wrapping_add(MSS);
        }
    }

    fn process_data(&mut self, seg: &Seg, out: &mut Vec<ConnEvent>) {
        if !matches!(
            self.state,
            State::Established | State::FinWait1 | State::FinWait2
        ) {
            // Data after the peer said it was done, or before establishment:
            // just re-ack.
            self.send_ack(out);
            return;
        }
        let end = seg.seq.wrapping_add(seg.payload_len);
        if seq::le(end, self.rcv_nxt) {
            // Entirely old: a duplicate. DSACK-capable receivers mark the
            // ack they generate so the sender can discount it.
            self.send_dupack_for_old(out);
            return;
        }
        if seq::le(seg.seq, self.rcv_nxt) {
            // In order (possibly overlapping the left edge).
            let new_bytes = end.wrapping_sub(self.rcv_nxt);
            self.rcv_nxt = end;
            self.delivered += new_bytes as u64;
            out.push(ConnEvent::DeliverData(new_bytes));
            self.merge_ooo(out);
            self.send_ack(out);
        } else {
            // A hole: buffer and emit a genuine duplicate ack, carrying
            // SACK evidence of the hole on SACK-capable receivers.
            self.store_ooo(seg.seq, seg.payload_len);
            if self.profile.dsack {
                self.send_marked_ack(out, SACK_MARKER);
            } else {
                self.send_ack(out);
            }
        }
    }

    fn process_fin(&mut self, seg: &Seg, out: &mut Vec<ConnEvent>) {
        let fin_seq = seg.seq.wrapping_add(seg.payload_len);
        if fin_seq != self.rcv_nxt {
            // Out-of-order FIN; it will be retransmitted in order.
            return;
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
        // A busy sender lets the FIN's acknowledgment ride on its own
        // outgoing (re)transmissions — they all carry the current
        // acknowledgment number — rather than emitting a pure ACK. This
        // wire-level detail matters to SNAKE: the aborted client is never
        // moved to FIN_WAIT_2 by the tracker, so every RST it emits falls
        // under the single (FIN_WAIT_1, RST) strategy key that makes the
        // CLOSE_WAIT attack discoverable.
        if self.flight() == 0 && self.app_queue == 0 {
            self.send_ack(out);
        }
        match self.state {
            State::Established => {
                self.state = State::CloseWait;
                out.push(ConnEvent::PeerClosed);
            }
            State::FinWait1 => {
                // Our FIN not yet acked: simultaneous close.
                self.state = State::Closing;
            }
            State::FinWait2 => {
                self.state = State::TimeWait;
                out.push(ConnEvent::CancelRto);
                out.push(ConnEvent::ArmTimeWait(self.profile.time_wait));
            }
            _ => {}
        }
    }

    fn on_fin_acked(&mut self, out: &mut Vec<ConnEvent>) {
        match self.state {
            State::FinWait1 => self.state = State::FinWait2,
            State::Closing => {
                self.state = State::TimeWait;
                out.push(ConnEvent::CancelRto);
                out.push(ConnEvent::ArmTimeWait(self.profile.time_wait));
            }
            State::LastAck => {
                self.state = State::Closed;
                out.push(ConnEvent::CancelRto);
                out.push(ConnEvent::Finished);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends as much queued data as the congestion and flow-control windows
    /// allow, then the FIN if one is pending and fits.
    fn try_send(&mut self, now: SimTime, out: &mut Vec<ConnEvent>) {
        if !matches!(self.state, State::Established | State::CloseWait) {
            return;
        }
        let had_flight = self.flight() > 0;
        let mut sent_any = false;
        loop {
            let wnd = (self.cwnd as u32).min(self.snd_wnd);
            let flight = self.flight();
            if flight >= wnd {
                break;
            }
            let budget = (wnd - flight) as u64;
            let chunk = MSS.min(self.app_queue.min(budget) as u32);
            if chunk == 0 {
                break;
            }
            let seq_no = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(chunk);
            self.app_queue -= chunk as u64;
            self.psh_counter += 1;
            // PSH on every 10th segment and on a buffer flush, so PSH+ACK
            // segments "occur only occasionally in the data stream"
            // (paper §VI-A.6).
            let psh = self.psh_counter.is_multiple_of(10) || self.app_queue == 0;
            let flags = if psh {
                TcpFlags::PSH_ACK
            } else {
                TcpFlags::ACK
            };
            self.emit(out, flags, seq_no, self.rcv_nxt, chunk);
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
            sent_any = true;
        }
        // FIN once the queue is fully segmentized and the window has room.
        if self.fin_pending
            && self.fin_seq.is_none()
            && self.app_queue == 0
            && self.flight() < (self.cwnd as u32).min(self.snd_wnd).max(1)
        {
            let fin = self.snd_nxt;
            self.fin_seq = Some(fin);
            self.fin_pending = false;
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.emit(out, TcpFlags::FIN_ACK, fin, self.rcv_nxt, 0);
            self.state = match self.state {
                State::CloseWait => State::LastAck,
                _ => State::FinWait1,
            };
            sent_any = true;
        }
        if sent_any && !had_flight {
            self.arm_rto(out);
        }
        // Zero-window stall with data pending: arm the persist timer.
        if !sent_any
            && !had_flight
            && self.app_queue > 0
            && self.snd_wnd == 0
            && self.fin_seq.is_none()
        {
            self.arm_rto(out);
        }
    }

    /// Retransmits one segment from the head of the unacknowledged region.
    fn retransmit_head(&mut self, _now: SimTime, out: &mut Vec<ConnEvent>) {
        let una = self.snd_una;
        if let Some(fin) = self.fin_seq {
            if una == fin {
                self.emit(out, TcpFlags::FIN_ACK, fin, self.rcv_nxt, 0);
                self.retransmits += 1;
                return;
            }
        }
        let outstanding_data = match self.fin_seq {
            Some(fin) => fin.wrapping_sub(una),
            None => self.flight(),
        };
        let chunk = MSS.min(outstanding_data);
        if chunk == 0 {
            return;
        }
        self.emit(out, TcpFlags::ACK, una, self.rcv_nxt, chunk);
        self.retransmits += 1;
    }

    /// Retransmits one MSS starting at `from` if it lies within the
    /// unacknowledged data region.
    fn retransmit_at(&mut self, from: u32, out: &mut Vec<ConnEvent>) {
        let data_end = self.fin_seq.unwrap_or(self.snd_nxt);
        if !seq::lt(from, data_end) {
            return;
        }
        let chunk = MSS.min(data_end.wrapping_sub(from));
        if chunk == 0 {
            return;
        }
        self.emit(out, TcpFlags::ACK, from, self.rcv_nxt, chunk);
        self.retransmits += 1;
    }

    fn grow_cwnd(&mut self) {
        let mss = MSS as f64;
        if self.cwnd < self.ssthresh {
            self.cwnd += mss;
        } else {
            self.cwnd += (mss * mss / self.cwnd).max(1.0);
        }
        // Cap at the flow-control window plus one MSS of headroom.
        self.cwnd = self.cwnd.min(65_535.0 + mss);
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
        let rto = self.srtt.expect("just set") + 4.0 * self.rttvar;
        let rto = SimDuration::from_secs_f64(rto);
        self.rto_base = rto.max(self.profile.min_rto).min(self.profile.max_rto);
    }

    fn arm_rto(&mut self, out: &mut Vec<ConnEvent>) {
        let rto = self
            .rto_base
            .saturating_mul(1u64 << self.backoff.min(16))
            .max(self.profile.min_rto)
            .min(self.profile.max_rto);
        out.push(ConnEvent::ArmRto(rto));
    }

    fn send_ack(&mut self, out: &mut Vec<ConnEvent>) {
        self.emit(out, TcpFlags::ACK, self.snd_nxt, self.rcv_nxt, 0);
    }

    /// Acknowledgment for an old duplicate segment; marked with the DSACK
    /// marker on profiles that support it.
    fn send_dupack_for_old(&mut self, out: &mut Vec<ConnEvent>) {
        let marker = if self.profile.dsack { DSACK_MARKER } else { 0 };
        self.send_marked_ack(out, marker);
    }

    fn send_marked_ack(&mut self, out: &mut Vec<ConnEvent>, marker: u16) {
        let seg = Seg {
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: TcpFlags::ACK,
            window: self.rcv_wnd as u16,
            urgent_ptr: marker,
            payload_len: 0,
        };
        self.segs_sent += 1;
        out.push(ConnEvent::Transmit(seg));
    }

    fn send_rst(&mut self, out: &mut Vec<ConnEvent>, seq_no: u32) {
        self.rsts_sent += 1;
        self.emit(out, TcpFlags::RST_ACK, seq_no, self.rcv_nxt, 0);
    }

    fn emit(&mut self, out: &mut Vec<ConnEvent>, flags: TcpFlags, seq_no: u32, ack: u32, len: u32) {
        self.segs_sent += 1;
        out.push(ConnEvent::Transmit(Seg {
            seq: seq_no,
            ack,
            flags,
            window: self.rcv_wnd as u16,
            urgent_ptr: 0,
            payload_len: len,
        }));
    }

    // ------------------------------------------------------------------
    // Out-of-order buffer
    // ------------------------------------------------------------------

    fn store_ooo(&mut self, seq_no: u32, len: u32) {
        // Bounded buffer: the receive window is 64 KiB = 45 segments.
        if self.ooo.len() >= 64 {
            return;
        }
        if !self.ooo.iter().any(|&(s, l)| s == seq_no && l == len) {
            self.ooo.push((seq_no, len));
        }
    }

    fn merge_ooo(&mut self, out: &mut Vec<ConnEvent>) {
        loop {
            let mut advanced = false;
            self.ooo.retain(|&(s, l)| {
                // Drop fully-old entries.
                !seq::le(s.wrapping_add(l), self.rcv_nxt)
            });
            for i in 0..self.ooo.len() {
                let (s, l) = self.ooo[i];
                if seq::le(s, self.rcv_nxt) {
                    let end = s.wrapping_add(l);
                    if seq::gt(end, self.rcv_nxt) {
                        let new_bytes = end.wrapping_sub(self.rcv_nxt);
                        self.rcv_nxt = end;
                        self.delivered += new_bytes as u64;
                        out.push(ConnEvent::DeliverData(new_bytes));
                        advanced = true;
                    }
                    self.ooo.swap_remove(i);
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
    }

    fn synchronized(&self) -> bool {
        !matches!(self.state, State::Closed | State::Listen | State::SynSent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_packet::tcp::TcpFlags;

    fn profile() -> Profile {
        Profile::linux_3_13()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drains Transmit events from an event list.
    fn transmits(events: &[ConnEvent]) -> Vec<Seg> {
        events
            .iter()
            .filter_map(|e| match e {
                ConnEvent::Transmit(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    /// Runs a full handshake between two in-memory connections, returning
    /// them in ESTABLISHED.
    fn established_pair() -> (Connection, Connection) {
        let mut client = Connection::client(profile(), 1_000);
        let mut server = Connection::server(profile(), 9_000);
        let mut out = Vec::new();

        client.open(&mut out);
        let syn = transmits(&out)[0];
        assert_eq!(syn.packet_type(), TcpPacketType::Syn);
        out.clear();

        server.on_segment(syn, t(10), &mut out);
        let synack = transmits(&out)[0];
        assert_eq!(synack.packet_type(), TcpPacketType::SynAck);
        assert_eq!(server.state(), State::SynReceived);
        out.clear();

        client.on_segment(synack, t(20), &mut out);
        assert_eq!(client.state(), State::Established);
        assert!(out.contains(&ConnEvent::Connected));
        let ack = transmits(&out)[0];
        out.clear();

        server.on_segment(ack, t(30), &mut out);
        assert_eq!(server.state(), State::Established);
        assert!(out.contains(&ConnEvent::Accepted));
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let (c, s) = established_pair();
        assert_eq!(c.state(), State::Established);
        assert_eq!(s.state(), State::Established);
    }

    #[test]
    fn handshake_ack_numbers_are_exact() {
        let mut client = Connection::client(profile(), 1_000);
        let mut out = Vec::new();
        client.open(&mut out);
        out.clear();
        // SYN+ACK with the wrong ack number is answered with RST, not
        // accepted.
        let bad = Seg {
            seq: 9_000,
            ack: 2_000,
            flags: TcpFlags::SYN_ACK,
            window: 65_535,
            urgent_ptr: 0,
            payload_len: 0,
        };
        client.on_segment(bad, t(10), &mut out);
        assert_eq!(client.state(), State::SynSent);
        assert_eq!(transmits(&out)[0].packet_type(), TcpPacketType::Rst);
    }

    #[test]
    fn data_transfer_delivers_in_order() {
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(3_000, t(40), &mut out);
        let segs = transmits(&out);
        assert_eq!(segs.len(), 3, "3000 bytes = 2 full MSS + remainder");
        assert_eq!(segs[0].payload_len, MSS);
        assert_eq!(segs[2].payload_len, 3_000 - 2 * MSS);
        assert!(segs[2].flags.psh, "buffer flush sets PSH");
        out.clear();

        for seg in segs {
            client.on_segment(seg, t(50), &mut out);
        }
        assert_eq!(client.delivered(), 3_000);
        let acks = transmits(&out);
        assert_eq!(acks.len(), 3, "every data segment is acked");
        assert_eq!(acks[2].ack, segs_end(&server));
        out.clear();

        for ack in acks {
            server.on_segment(ack, t(60), &mut out);
        }
        assert_eq!(server.flight(), 0);
        assert!(out.contains(&ConnEvent::CancelRto));
    }

    fn segs_end(server: &Connection) -> u32 {
        server.snd_nxt
    }

    #[test]
    fn out_of_order_data_buffers_and_merges() {
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(3 * MSS as u64, t(40), &mut out);
        let segs = transmits(&out);
        out.clear();

        // Deliver 2nd and 3rd first: buffered, dup acks emitted.
        client.on_segment(segs[1], t(50), &mut out);
        client.on_segment(segs[2], t(51), &mut out);
        assert_eq!(client.delivered(), 0);
        let acks = transmits(&out);
        assert_eq!(acks[0].ack, segs[0].seq, "dup ack points at the hole");
        out.clear();

        // The hole fills; everything is delivered at once.
        client.on_segment(segs[0], t(52), &mut out);
        assert_eq!(client.delivered(), 3 * MSS as u64);
        let final_ack = transmits(&out).last().copied().unwrap();
        assert_eq!(final_ack.ack, segs[2].seq.wrapping_add(MSS));
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(10 * MSS as u64, t(40), &mut out);
        let segs = transmits(&out);
        out.clear();

        // Lose segment 0; deliver 1..3 → three dup acks.
        let mut dupacks = Vec::new();
        for seg in &segs[1..4] {
            client.on_segment(*seg, t(50), &mut out);
        }
        for a in transmits(&out) {
            dupacks.push(a);
        }
        out.clear();
        assert!(dupacks.iter().all(|a| a.ack == segs[0].seq));

        let cwnd_before = server.cwnd();
        for a in dupacks {
            server.on_segment(a, t(60), &mut out);
        }
        let rtx = transmits(&out);
        assert_eq!(rtx.len(), 1, "exactly one fast retransmit");
        assert_eq!(rtx[0].seq, segs[0].seq);
        assert_eq!(server.retransmits(), 1);
        assert!(server.cwnd() < cwnd_before, "window halved-ish on loss");
    }

    #[test]
    fn dsack_marked_dupacks_do_not_trigger_fast_retransmit() {
        // Linux receivers mark acks for fully-old duplicates; a Linux
        // sender then never counts them as loss. This is the mechanism
        // that keeps Linux fair under the duplicate-PSH+ACK attack that
        // degrades Windows 8.1 (paper §VI-A.6).
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(10 * MSS as u64, t(40), &mut out);
        let segs = transmits(&out);
        out.clear();

        // Deliver segment 0, then 9 duplicate copies of it (what the
        // proxy's duplicate-10x strategy produces).
        client.on_segment(segs[0], t(50), &mut out);
        for _ in 0..9 {
            client.on_segment(segs[0], t(51), &mut out);
        }
        let acks = transmits(&out);
        assert_eq!(acks.len(), 10);
        assert!(
            acks[1..].iter().all(|a| a.urgent_ptr == DSACK_MARKER),
            "DSACK-marked"
        );
        out.clear();

        for a in acks {
            server.on_segment(a, t(60), &mut out);
        }
        assert_eq!(server.retransmits(), 0, "no spurious fast retransmit");
    }

    #[test]
    fn unmarked_dupack_burst_halves_windows_81_window() {
        let win = Profile::windows_8_1();
        let mut client = Connection::client(win.clone(), 1_000);
        let mut server = Connection::server(win, 9_000);
        let mut out = Vec::new();
        client.open(&mut out);
        let syn = transmits(&out)[0];
        out.clear();
        server.on_segment(syn, t(1), &mut out);
        let synack = transmits(&out)[0];
        out.clear();
        client.on_segment(synack, t(2), &mut out);
        let ack = transmits(&out)[0];
        out.clear();
        server.on_segment(ack, t(3), &mut out);
        out.clear();

        server.app_send(10 * MSS as u64, t(40), &mut out);
        let segs = transmits(&out);
        out.clear();

        client.on_segment(segs[0], t(50), &mut out);
        for _ in 0..9 {
            client.on_segment(segs[0], t(51), &mut out);
        }
        let acks = transmits(&out);
        assert!(
            acks[1..].iter().all(|a| a.urgent_ptr == 0),
            "Windows does not mark"
        );
        out.clear();

        let cwnd_before = server.cwnd();
        for a in &acks {
            server.on_segment(*a, t(60), &mut out);
        }
        assert!(server.retransmits() >= 1, "spurious fast retransmit");
        // A full acknowledgment ends the (spurious) recovery with the
        // window genuinely halved — Windows has no undo mechanism.
        let last = segs.last().unwrap();
        let full = Seg {
            seq: acks[0].seq,
            ack: last.seq.wrapping_add(last.payload_len),
            flags: TcpFlags::ACK,
            window: 65_535,
            urgent_ptr: 0,
            payload_len: 0,
        };
        server.on_segment(full, t(70), &mut out);
        assert!(server.cwnd() < cwnd_before, "window permanently reduced");
    }

    #[test]
    fn naive_ack_counting_grows_on_duplicates() {
        let w95 = Profile::windows_95();
        let mut server = Connection::server(w95.clone(), 9_000);
        let mut client = Connection::client(w95, 1_000);
        let mut out = Vec::new();
        client.open(&mut out);
        let syn = transmits(&out)[0];
        out.clear();
        server.on_segment(syn, t(1), &mut out);
        let synack = transmits(&out)[0];
        out.clear();
        client.on_segment(synack, t(2), &mut out);
        let ack = transmits(&out)[0];
        out.clear();
        server.on_segment(ack, t(3), &mut out);
        out.clear();

        server.app_send(100 * MSS as u64, t(10), &mut out);
        let segs = transmits(&out);
        out.clear();
        client.on_segment(segs[0], t(20), &mut out);
        let first_ack = transmits(&out)[0];
        out.clear();

        server.on_segment(first_ack, t(30), &mut out);
        out.clear();
        let before = server.cwnd();
        // Two duplicated copies of the same ack (the proxy's duplicate
        // strategy): a naïve stack grows its window for each.
        server.on_segment(first_ack, t(31), &mut out);
        server.on_segment(first_ack, t(32), &mut out);
        assert!(
            server.cwnd() > before,
            "duplicates inflate the window on Windows 95"
        );

        // Whereas Linux ignores them entirely.
        out.clear();
        let (mut lclient, mut lserver) = established_pair();
        lserver.app_send(100 * MSS as u64, t(10), &mut out);
        let lsegs = transmits(&out);
        out.clear();
        lclient.on_segment(lsegs[0], t(20), &mut out);
        let lack = transmits(&out)[0];
        out.clear();
        lserver.on_segment(lack, t(30), &mut out);
        let lbefore = lserver.cwnd();
        lserver.on_segment(lack, t(31), &mut out);
        lserver.on_segment(lack, t(32), &mut out);
        assert_eq!(lserver.cwnd(), lbefore);
    }

    #[test]
    fn in_window_rst_resets_connection() {
        let (mut client, _server) = established_pair();
        let mut out = Vec::new();
        let rst = Seg {
            seq: client.rcv_nxt,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            urgent_ptr: 0,
            payload_len: 0,
        };
        client.on_segment(rst, t(50), &mut out);
        assert_eq!(client.state(), State::Closed);
        assert!(out.iter().any(|e| matches!(e, ConnEvent::Reset(_))));
    }

    #[test]
    fn out_of_window_rst_is_ignored() {
        let (mut client, _server) = established_pair();
        let mut out = Vec::new();
        let rst = Seg {
            seq: client.rcv_nxt.wrapping_add(100_000),
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            urgent_ptr: 0,
            payload_len: 0,
        };
        client.on_segment(rst, t(50), &mut out);
        assert_eq!(client.state(), State::Established);
    }

    #[test]
    fn in_window_syn_resets_connection() {
        // The SYN-Reset attack (paper §VI-A.5): every implementation is
        // vulnerable because the behaviour is RFC-mandated.
        for p in Profile::all() {
            let mut client = Connection::client(p.clone(), 1_000);
            let mut server = Connection::server(p, 9_000);
            let mut out = Vec::new();
            client.open(&mut out);
            let syn = transmits(&out)[0];
            out.clear();
            server.on_segment(syn, t(1), &mut out);
            let synack = transmits(&out)[0];
            out.clear();
            client.on_segment(synack, t(2), &mut out);
            out.clear();

            let spoofed_syn = Seg {
                seq: client.rcv_nxt.wrapping_add(5),
                ack: 0,
                flags: TcpFlags::SYN,
                window: 65_535,
                urgent_ptr: 0,
                payload_len: 0,
            };
            client.on_segment(spoofed_syn, t(3), &mut out);
            assert_eq!(client.state(), State::Closed, "{}", client.profile.name);
        }
    }

    #[test]
    fn null_flag_packet_gets_dupack_on_best_effort_only() {
        let null = |rcv: u32| Seg {
            seq: rcv,
            ack: 0,
            flags: TcpFlags::none(),
            window: 0,
            urgent_ptr: 0,
            payload_len: 0,
        };
        // Linux 3.0.0 responds (fingerprintable)...
        let mut c300 = Connection::client(Profile::linux_3_0_0(), 1_000);
        c300.state = State::Established;
        let mut out = Vec::new();
        c300.on_segment(null(c300.rcv_nxt), t(1), &mut out);
        assert_eq!(transmits(&out).len(), 1, "Linux 3.0.0 answers null flags");

        // ...Linux 3.13 does not.
        let mut c313 = Connection::client(Profile::linux_3_13(), 1_000);
        c313.state = State::Established;
        out.clear();
        c313.on_segment(null(c313.rcv_nxt), t(1), &mut out);
        assert!(transmits(&out).is_empty(), "Linux 3.13 ignores null flags");

        // Windows 8.1 ignores it too (no RST flag present).
        let mut w81 = Connection::client(Profile::windows_8_1(), 1_000);
        w81.state = State::Established;
        out.clear();
        w81.on_segment(null(w81.rcv_nxt), t(1), &mut out);
        assert!(transmits(&out).is_empty());
    }

    #[test]
    fn windows_81_processes_rst_with_nonsense_flags() {
        let mut w81 = Connection::client(Profile::windows_8_1(), 1_000);
        w81.state = State::Established;
        let mut out = Vec::new();
        let monster = Seg {
            seq: w81.rcv_nxt,
            ack: 0,
            flags: TcpFlags {
                syn: true,
                fin: true,
                rst: true,
                ack: true,
                ..TcpFlags::none()
            },
            window: 0,
            urgent_ptr: 0,
            payload_len: 0,
        };
        w81.on_segment(monster, t(1), &mut out);
        assert_eq!(
            w81.state(),
            State::Closed,
            "RST wins regardless of other flags"
        );

        // Linux 3.13 ignores the same packet.
        let mut c313 = Connection::client(Profile::linux_3_13(), 1_000);
        c313.state = State::Established;
        out.clear();
        c313.on_segment(monster, t(1), &mut out);
        assert_eq!(c313.state(), State::Established);
    }

    #[test]
    fn graceful_close_full_lifecycle() {
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();

        // Client closes; FIN travels; server enters CLOSE_WAIT.
        client.app_close(t(100), &mut out);
        let fin = transmits(&out)[0];
        assert_eq!(fin.packet_type(), TcpPacketType::FinAck);
        assert_eq!(client.state(), State::FinWait1);
        out.clear();

        server.on_segment(fin, t(110), &mut out);
        assert_eq!(server.state(), State::CloseWait);
        assert!(out.contains(&ConnEvent::PeerClosed));
        let ack = transmits(&out)[0];
        out.clear();

        client.on_segment(ack, t(120), &mut out);
        assert_eq!(client.state(), State::FinWait2);
        out.clear();

        // Server closes; its FIN completes the exchange.
        server.app_close(t(130), &mut out);
        let fin2 = transmits(&out)[0];
        assert_eq!(server.state(), State::LastAck);
        out.clear();

        client.on_segment(fin2, t(140), &mut out);
        assert_eq!(client.state(), State::TimeWait);
        assert!(out.iter().any(|e| matches!(e, ConnEvent::ArmTimeWait(_))));
        let last_ack = transmits(&out)[0];
        out.clear();

        server.on_segment(last_ack, t(150), &mut out);
        assert_eq!(server.state(), State::Closed);
        assert!(out.contains(&ConnEvent::Finished));

        client.on_time_wait_expiry(&mut out);
        assert_eq!(client.state(), State::Closed);
    }

    #[test]
    fn linux_abort_sends_fin_then_rsts_data() {
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(5 * MSS as u64, t(40), &mut out);
        let segs = transmits(&out);
        out.clear();

        // The client app dies mid-transfer.
        client.app_abort(t(50), &mut out);
        let fin = transmits(&out)[0];
        assert_eq!(fin.packet_type(), TcpPacketType::FinAck);
        assert_eq!(client.state(), State::FinWait1);
        out.clear();

        // Data still in flight arrives: each gets a RST.
        client.on_segment(segs[0], t(60), &mut out);
        client.on_segment(segs[1], t(61), &mut out);
        let replies = transmits(&out);
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| r.flags.rst));
        assert_eq!(client.rsts_sent(), 2);
    }

    #[test]
    fn windows_abort_sends_single_rst() {
        let w81 = Profile::windows_8_1();
        let mut conn = Connection::client(w81, 1_000);
        conn.state = State::Established;
        let mut out = Vec::new();
        conn.app_abort(t(50), &mut out);
        let pkts = transmits(&out);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].flags.rst);
        assert_eq!(conn.state(), State::Closed);
    }

    #[test]
    fn close_wait_sticks_while_data_unacknowledged() {
        // The CLOSE_WAIT resource-exhaustion precondition (paper §VI-A.1):
        // a server with a window of unacknowledged data that receives FIN
        // and then closes cannot send its own FIN, so it stays in
        // CLOSE_WAIT.
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(20 * MSS as u64, t(40), &mut out);
        assert!(server.flight() > 0);
        out.clear();

        // Client aborts; its FIN reaches the server.
        client.app_abort(t(50), &mut out);
        let fin = transmits(&out)[0];
        out.clear();
        server.on_segment(fin, t(60), &mut out);
        assert_eq!(server.state(), State::CloseWait);
        out.clear();

        // Server app closes. Its FIN cannot be sent: a full window of data
        // is outstanding and will never be acked (the client RSTs are
        // being dropped by the attack).
        server.app_close(t(70), &mut out);
        assert_eq!(server.state(), State::CloseWait, "stuck in CLOSE_WAIT");
        assert!(
            transmits(&out).iter().all(|s| !s.flags.fin),
            "no FIN while data pending"
        );

        // RTOs fire; the server keeps retransmitting into the void but
        // remains in CLOSE_WAIT until retries are exhausted.
        for i in 0..server.profile.max_data_retries {
            server.on_rto(t(1_000 + i as u64 * 1_000), &mut out);
            assert_eq!(server.state(), State::CloseWait, "retry {i}");
        }
        // The final retry gives up and force-closes.
        server.on_rto(t(100_000), &mut out);
        assert_eq!(server.state(), State::Closed);
        assert!(out
            .iter()
            .any(|e| matches!(e, ConnEvent::Reset("retransmissions exhausted"))));
    }

    #[test]
    fn rto_retransmits_and_backs_off() {
        let (mut _client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(MSS as u64, t(40), &mut out);
        out.clear();

        server.on_rto(t(1_040), &mut out);
        let rtx = transmits(&out);
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].payload_len, MSS);
        assert_eq!(server.cwnd(), MSS, "cwnd collapses to 1 MSS on timeout");
        let rto1 = out.iter().find_map(|e| match e {
            ConnEvent::ArmRto(d) => Some(*d),
            _ => None,
        });
        out.clear();
        server.on_rto(t(3_000), &mut out);
        let rto2 = out.iter().find_map(|e| match e {
            ConnEvent::ArmRto(d) => Some(*d),
            _ => None,
        });
        assert!(
            rto2.unwrap() >= rto1.unwrap().saturating_mul(2),
            "exponential backoff"
        );
    }

    #[test]
    fn syn_retransmission_gives_up() {
        let mut client = Connection::client(profile(), 1_000);
        let mut out = Vec::new();
        client.open(&mut out);
        out.clear();
        for _ in 0..client.profile.syn_retries {
            client.on_rto(t(1_000), &mut out);
            assert_eq!(client.state(), State::SynSent);
        }
        client.on_rto(t(60_000), &mut out);
        assert_eq!(client.state(), State::Closed);
        assert!(out
            .iter()
            .any(|e| matches!(e, ConnEvent::Reset("handshake timed out"))));
    }

    #[test]
    fn futuristic_ack_is_dropped_with_reack() {
        let (mut client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(MSS as u64, t(40), &mut out);
        out.clear();
        // An ack for data never sent (a lie-mutated ack field).
        let evil = Seg {
            seq: server.rcv_nxt,
            ack: server.snd_nxt.wrapping_add(50_000),
            flags: TcpFlags::ACK,
            window: 65_535,
            urgent_ptr: 0,
            payload_len: 0,
        };
        let una_before = server.snd_una;
        server.on_segment(evil, t(50), &mut out);
        assert_eq!(server.snd_una, una_before, "future ack not absorbed");
        assert_eq!(transmits(&out).len(), 1, "re-acks current state");
        let _ = &mut client;
    }

    #[test]
    fn zero_window_stalls_sender() {
        let (mut _client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(MSS as u64, t(40), &mut out);
        out.clear();
        // Receiver advertises a zero window (lie window=0).
        let ack = Seg {
            seq: server.rcv_nxt,
            ack: server.snd_nxt,
            flags: TcpFlags::ACK,
            window: 0,
            urgent_ptr: 0,
            payload_len: 0,
        };
        server.on_segment(ack, t(50), &mut out);
        out.clear();
        server.app_send(10 * MSS as u64, t(60), &mut out);
        assert!(
            transmits(&out).is_empty(),
            "zero window blocks transmission"
        );
    }

    #[test]
    fn persist_timer_probes_zero_window_and_recovers() {
        let (mut _client, mut server) = established_pair();
        let mut out = Vec::new();
        server.app_send(MSS as u64, t(40), &mut out);
        out.clear();
        // Receiver closes its window completely.
        let zero = Seg {
            seq: server.rcv_nxt,
            ack: server.snd_nxt,
            flags: TcpFlags::ACK,
            window: 0,
            urgent_ptr: 0,
            payload_len: 0,
        };
        server.on_segment(zero, t(50), &mut out);
        out.clear();
        server.app_send(10 * MSS as u64, t(60), &mut out);
        assert!(transmits(&out).is_empty(), "no data into a zero window");
        assert!(
            out.iter().any(|e| matches!(e, ConnEvent::ArmRto(_))),
            "persist timer armed"
        );
        out.clear();

        // The persist timer fires: a probe goes out.
        server.on_rto(t(300), &mut out);
        let probes = transmits(&out);
        assert_eq!(probes.len(), 1);
        assert_eq!(probes[0].payload_len, 0, "probe is a bare ACK");
        out.clear();

        // The window reopens; transfer resumes.
        let open = Seg {
            window: 65_535,
            ..zero
        };
        server.on_segment(open, t(400), &mut out);
        assert!(
            !transmits(&out).is_empty(),
            "data flows once the window opens"
        );
    }

    #[test]
    fn simultaneous_open_via_reflected_syn() {
        // The reflect attack: a client in SYN_SENT receiving a SYN enters
        // SYN_RECEIVED (RFC 793 simultaneous open) instead of completing
        // the normal handshake.
        let mut client = Connection::client(profile(), 1_000);
        let mut out = Vec::new();
        client.open(&mut out);
        out.clear();
        let reflected = Seg {
            seq: 5_555,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
            urgent_ptr: 0,
            payload_len: 0,
        };
        client.on_segment(reflected, t(10), &mut out);
        assert_eq!(client.state(), State::SynReceived);
        assert_eq!(transmits(&out)[0].packet_type(), TcpPacketType::SynAck);
    }

    #[test]
    fn state_names_match_dot_machine() {
        for (state, name) in [
            (State::Listen, "LISTEN"),
            (State::SynSent, "SYN_SENT"),
            (State::Established, "ESTABLISHED"),
            (State::CloseWait, "CLOSE_WAIT"),
            (State::TimeWait, "TIME_WAIT"),
        ] {
            assert_eq!(state.name(), name);
        }
    }
}
