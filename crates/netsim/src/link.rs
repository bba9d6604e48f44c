use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::arena::{PacketArena, PacketRef};
use crate::impair::{Impairment, PPM};
use crate::time::{tx_delay, SimDuration, SimTime};

/// Identifier of a duplex link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Queue management discipline for a link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aqm {
    /// Plain FIFO tail drop.
    DropTail,
    /// A gentle RED variant: once the queue passes a quarter of its
    /// capacity, arrivals are dropped with probability ramping linearly to
    /// 15% at full (where tail drop takes over anyway). Used on the
    /// evaluation bottleneck to desynchronise competing flows, as RED does
    /// on real routers.
    Red,
}

/// Parameters of a duplex link: bandwidth, one-way propagation delay,
/// per-direction queue capacity in packets, and optional adversarial
/// impairments.
///
/// The finite queue is what turns over-subscription into loss, which is the
/// congestion signal TCP New Reno and DCCP CCID-2 respond to; without it
/// none of the congestion-control attacks would have anything to attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Link rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue capacity in packets, per direction.
    pub queue_packets: usize,
    /// Queue management discipline.
    pub aqm: Aqm,
    /// Adversarial impairments applied to each direction
    /// ([`Impairment::NONE`] by default).
    pub impair: Impairment,
}

impl LinkSpec {
    /// Creates a tail-drop link spec, validating the parameters.
    ///
    /// Zero bandwidth would make transmission time infinite and a zero
    /// queue could never start a transmission, so both are rejected.
    pub fn try_new(
        bandwidth_bps: u64,
        delay: SimDuration,
        queue_packets: usize,
    ) -> Result<LinkSpec, String> {
        if bandwidth_bps == 0 {
            return Err("link bandwidth must be positive".to_owned());
        }
        if queue_packets == 0 {
            return Err("link queue must hold at least one packet".to_owned());
        }
        Ok(LinkSpec {
            bandwidth_bps,
            delay,
            queue_packets,
            aqm: Aqm::DropTail,
            impair: Impairment::NONE,
        })
    }

    /// Creates a tail-drop link spec.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero or `queue_packets` is zero; use
    /// [`LinkSpec::try_new`] to validate untrusted input instead.
    pub fn new(bandwidth_bps: u64, delay: SimDuration, queue_packets: usize) -> LinkSpec {
        LinkSpec::try_new(bandwidth_bps, delay, queue_packets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Switches the spec to RED queue management.
    pub fn with_red(mut self) -> LinkSpec {
        self.aqm = Aqm::Red;
        self
    }

    /// Applies an impairment spec to both directions of the link.
    pub fn with_impairment(mut self, impair: Impairment) -> LinkSpec {
        self.impair = impair;
        self
    }
}

/// Counters for one direction of a link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Packets accepted onto the queue.
    pub enqueued: u64,
    /// Packets dropped because the queue was full (or by RED).
    pub dropped: u64,
    /// Packets fully transmitted.
    pub transmitted: u64,
    /// Bytes fully transmitted (wire lengths).
    pub bytes: u64,
    /// Packets removed by the stochastic loss impairment.
    pub lost: u64,
    /// Packets duplicated by the duplication impairment.
    pub duplicated: u64,
    /// Packets discarded as corrupted (failed frame check on receive).
    pub corrupted: u64,
    /// Packets delayed by reorder jitter.
    pub reordered: u64,
    /// Packets dropped because the link was in a flap outage window.
    pub flap_dropped: u64,
}

impl ChannelStats {
    /// Total packets removed or perturbed by impairments (not queue drops).
    pub fn impaired(&self) -> u64 {
        self.lost + self.duplicated + self.corrupted + self.reordered + self.flap_dropped
    }
}

/// Mixes a simulator seed, a lane index and a lane salt into an
/// independent RNG seed (a splitmix64 finalizer over the xor-combined
/// inputs). Each subsystem draws from its own lane, so adding draws in one
/// lane — enabling an impairment, adding a RED queue — never reshuffles
/// the sequence seen by any other.
pub(crate) fn lane_seed(seed: u64, lane: u64, salt: u64) -> u64 {
    let mut z =
        seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lane salt for a channel's AQM (RED) draws.
pub(crate) const LANE_AQM: u64 = 1;
/// Lane salt for a channel's impairment draws.
pub(crate) const LANE_IMPAIR: u64 = 2;

/// A packet as a channel holds it: its arena ref, plus the wire length
/// its transmission time and byte count need — 8 bytes instead of the
/// packet itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parked {
    pub(crate) packet: PacketRef,
    wire_len: u32,
}

/// One direction of a duplex link: a FIFO tail-drop queue feeding a
/// transmitter, followed by fixed propagation delay, with an optional
/// impairment stage in front of the queue.
///
/// Packets stay parked in the simulator's [`PacketArena`]; the channel
/// queues their refs, and every path that drops one — flap, loss,
/// corruption, tail drop, RED — frees its slot.
///
/// Each channel owns two private RNG lanes derived from the simulator
/// seed and the channel's index: one for AQM drop decisions, one for
/// impairment draws. A lane only advances when *this* channel consults
/// it, so a channel's random behaviour is a pure function of the seed and
/// the traffic it has carried — the property the snapshot-fork executor
/// and the memoization layer rely on.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    pub(crate) spec: LinkSpec,
    queue: VecDeque<Parked>,
    in_flight: Option<Parked>,
    aqm_rng: SmallRng,
    impair_rng: SmallRng,
    pub(crate) stats: ChannelStats,
}

impl Channel {
    /// Packets currently held by this channel (queued plus in flight),
    /// used to estimate how much a simulator fork copies.
    pub(crate) fn occupancy(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    pub(crate) fn new(spec: LinkSpec, sim_seed: u64, index: usize) -> Channel {
        let lane = |salt| SmallRng::seed_from_u64(lane_seed(sim_seed, index as u64, salt));
        Channel {
            spec,
            queue: VecDeque::new(),
            in_flight: None,
            aqm_rng: lane(LANE_AQM),
            impair_rng: lane(LANE_IMPAIR),
            stats: ChannelStats::default(),
        }
    }

    /// Draws one impairment decision with probability `ppm` / 1e6.
    fn draw(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.impair_rng.gen_range(0..PPM) < ppm
    }

    /// Offers a parked packet to the channel. Returns the completion time
    /// of a newly started transmission (the caller schedules the dequeue
    /// event), or `None` if the packet was queued behind an in-flight one
    /// or dropped.
    ///
    /// Impairments run in front of the queue in a fixed order — flap
    /// window (no draw), loss, corruption, duplication — and each draw
    /// happens only when its probability is non-zero, so an unimpaired
    /// channel never touches its impairment lane.
    pub(crate) fn enqueue(
        &mut self,
        packet: PacketRef,
        arena: &mut PacketArena,
        now: SimTime,
    ) -> Option<SimTime> {
        let impair = self.spec.impair;
        let dropped = if impair.flap.is_some_and(|flap| flap.is_down(now)) {
            Some(&mut self.stats.flap_dropped)
        } else if self.draw(impair.loss_ppm) {
            Some(&mut self.stats.lost)
        } else if self.draw(impair.corrupt_ppm) {
            // Corrupted on the wire: the receiving side's frame check fails
            // and the frame is discarded, so corruption is loss with its
            // own counter and its own independent draw.
            Some(&mut self.stats.corrupted)
        } else {
            None
        };
        if let Some(counter) = dropped {
            *counter += 1;
            arena.free(packet);
            return None;
        }
        let parked = Parked {
            packet,
            wire_len: arena.get(packet).wire_len(),
        };
        let copy = self.draw(impair.dup_ppm).then(|| Parked {
            packet: arena.duplicate(packet),
            ..parked
        });
        let started = self.admit(parked, arena, now);
        if let Some(copy) = copy {
            self.stats.duplicated += 1;
            // The original is now in flight or queued (or tail-dropped with
            // the queue full), so the copy can never start a transmission.
            let also = self.admit(copy, arena, now);
            debug_assert!(also.is_none(), "duplicate started a transmission");
        }
        started
    }

    /// Queue admission: the tail-drop/RED stage behind the impairments.
    fn admit(&mut self, parked: Parked, arena: &mut PacketArena, now: SimTime) -> Option<SimTime> {
        if self.in_flight.is_none() {
            self.stats.enqueued += 1;
            self.in_flight = Some(parked);
            return Some(now + self.tx_time(parked));
        }
        if self.queue.len() >= self.spec.queue_packets || self.red_drops() {
            self.stats.dropped += 1;
            arena.free(parked.packet);
            return None;
        }
        self.stats.enqueued += 1;
        self.queue.push_back(parked);
        None
    }

    /// RED's early drop: once the queue passes a quarter of its capacity,
    /// an arrival is dropped with probability ramping to 15 % at full.
    /// Draws from the AQM lane only on a RED link past that threshold.
    fn red_drops(&mut self) -> bool {
        if self.spec.aqm != Aqm::Red {
            return false;
        }
        let min_th = self.spec.queue_packets / 4;
        if self.queue.len() < min_th {
            return false;
        }
        let span = (self.spec.queue_packets - min_th).max(1) as f64;
        let p = 0.15 * (self.queue.len() - min_th) as f64 / span;
        self.aqm_rng.gen::<f64>() < p
    }

    /// Completes the in-flight transmission. Returns the transmitted
    /// packet and, if another packet was waiting, the completion time of
    /// its freshly started transmission.
    ///
    /// # Panics
    ///
    /// Panics if called with no transmission in flight (a scheduling bug).
    pub(crate) fn dequeue(&mut self, now: SimTime) -> (Parked, Option<SimTime>) {
        let done = self
            .in_flight
            .take()
            .expect("dequeue with no packet in flight");
        self.stats.transmitted += 1;
        self.stats.bytes += u64::from(done.wire_len);
        let next = self.queue.pop_front().map(|p| {
            self.in_flight = Some(p);
            now + self.tx_time(p)
        });
        (done, next)
    }

    /// Propagation delay for a packet leaving the transmitter now: the
    /// spec's fixed delay, plus — with the configured reorder probability —
    /// an extra uniform jitter in `(0, jitter]` that lets later traffic
    /// overtake this packet.
    pub(crate) fn delivery_delay(&mut self) -> SimDuration {
        let impair = self.spec.impair;
        if self.draw(impair.reorder_ppm) {
            let jitter = impair.jitter.as_nanos();
            if jitter > 0 {
                self.stats.reordered += 1;
                let extra = self.impair_rng.gen_range(1..=jitter);
                return self.spec.delay + SimDuration::from_nanos(extra);
            }
        }
        self.spec.delay
    }

    /// Whether this channel always delivers packets in transmission order:
    /// true unless reorder jitter is configured. In-order channels are
    /// eligible for the simulator's per-channel delivery batching — their
    /// delivery times are monotone, so consecutive deliveries can drain
    /// from a FIFO without consulting the global event queue per packet.
    pub(crate) fn delivers_in_order(&self) -> bool {
        self.spec.impair.reorder_ppm == 0
    }

    /// Packets currently queued (not counting the one in flight).
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn tx_time(&self, parked: Parked) -> SimDuration {
        tx_delay(parked.wire_len, self.spec.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Packet, Protocol};
    use crate::sim::NodeId;

    /// A channel with the arena its packets park in, offering and
    /// completing packets by value the way the simulator does by ref.
    struct TestChan {
        chan: Channel,
        arena: PacketArena,
    }

    impl TestChan {
        fn new(spec: LinkSpec, seed: u64) -> TestChan {
            TestChan {
                chan: Channel::new(spec, seed, 0),
                arena: PacketArena::default(),
            }
        }

        fn enqueue(&mut self, packet: Packet, now: SimTime) -> Option<SimTime> {
            let packet = self.arena.insert(packet);
            self.chan.enqueue(packet, &mut self.arena, now)
        }

        fn dequeue(&mut self, now: SimTime) -> (Packet, Option<SimTime>) {
            let (done, next) = self.chan.dequeue(now);
            (self.arena.take(done.packet), next)
        }
    }

    impl std::ops::Deref for TestChan {
        type Target = Channel;
        fn deref(&self) -> &Channel {
            &self.chan
        }
    }

    impl std::ops::DerefMut for TestChan {
        fn deref_mut(&mut self) -> &mut Channel {
            &mut self.chan
        }
    }

    fn pkt(bytes: u32) -> Packet {
        // wire_len = 20 overhead + bytes payload (empty header).
        Packet::new(
            Addr::new(NodeId::from_index(0), 1),
            Addr::new(NodeId::from_index(1), 1),
            Protocol::Other(0),
            Vec::new(),
            bytes,
        )
    }

    fn chan() -> TestChan {
        // 8 Mbit/s => 1 byte per microsecond.
        TestChan::new(LinkSpec::new(8_000_000, SimDuration::from_millis(1), 2), 7)
    }

    fn red_chan(seed: u64) -> TestChan {
        TestChan::new(
            LinkSpec::new(8_000_000, SimDuration::from_millis(1), 16).with_red(),
            seed,
        )
    }

    #[test]
    fn idle_channel_transmits_immediately() {
        let mut c = chan();
        let done = c.enqueue(pkt(80), SimTime::ZERO);
        // 100 wire bytes at 1 byte/µs = 100 µs.
        assert_eq!(done, Some(SimTime::from_micros(100)));
    }

    #[test]
    fn busy_channel_queues() {
        let mut c = chan();
        assert!(c.enqueue(pkt(80), SimTime::ZERO).is_some());
        assert_eq!(c.enqueue(pkt(80), SimTime::ZERO), None);
        assert_eq!(c.queue_len(), 1);
        assert_eq!(c.stats.enqueued, 2);
    }

    #[test]
    fn full_queue_tail_drops() {
        let mut c = chan();
        c.enqueue(pkt(80), SimTime::ZERO); // in flight
        c.enqueue(pkt(80), SimTime::ZERO); // queued 1
        c.enqueue(pkt(80), SimTime::ZERO); // queued 2 (cap)
        c.enqueue(pkt(80), SimTime::ZERO); // dropped
        assert_eq!(c.stats.dropped, 1);
        assert_eq!(c.queue_len(), 2);
    }

    #[test]
    fn dequeue_starts_next_transmission() {
        let mut c = chan();
        c.enqueue(pkt(80), SimTime::ZERO);
        c.enqueue(pkt(180), SimTime::ZERO);
        let now = SimTime::from_micros(100);
        let (sent, next) = c.dequeue(now);
        assert_eq!(sent.payload_len, 80);
        // Next packet is 200 wire bytes = 200 µs, starting at 100 µs.
        assert_eq!(next, Some(SimTime::from_micros(300)));
        assert_eq!(c.stats.transmitted, 1);
        assert_eq!(c.stats.bytes, 100);
    }

    #[test]
    #[should_panic(expected = "no packet in flight")]
    fn dequeue_empty_panics() {
        let mut c = chan();
        c.dequeue(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        LinkSpec::new(0, SimDuration::ZERO, 1);
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        assert!(LinkSpec::try_new(0, SimDuration::ZERO, 1)
            .unwrap_err()
            .contains("bandwidth"));
        assert!(LinkSpec::try_new(1_000, SimDuration::ZERO, 0)
            .unwrap_err()
            .contains("queue"));
        let spec = LinkSpec::try_new(8_000_000, SimDuration::from_millis(1), 2).unwrap();
        assert_eq!(
            spec,
            LinkSpec::new(8_000_000, SimDuration::from_millis(1), 2)
        );
    }

    /// Fills a RED channel to a target backlog, then counts drops across
    /// `offers` further arrivals, each made with exactly `backlog` packets
    /// queued (an accepted offer is immediately drained back down).
    fn red_drops_at_backlog(seed: u64, backlog: usize, offers: u32) -> u64 {
        let mut c = red_chan(seed);
        c.enqueue(pkt(80), SimTime::ZERO); // in flight
        while c.queue_len() < backlog {
            // Keep offering until the queue really holds `backlog` packets
            // (RED may drop some offers on the way up).
            c.enqueue(pkt(80), SimTime::ZERO);
        }
        let before = c.stats.dropped;
        for _ in 0..offers {
            c.enqueue(pkt(80), SimTime::ZERO);
            if c.queue_len() > backlog {
                // Accepted: complete the in-flight transmission, which
                // promotes one queued packet and restores the backlog.
                c.dequeue(SimTime::ZERO);
            }
        }
        c.stats.dropped - before
    }

    #[test]
    fn red_never_drops_below_min_threshold() {
        // queue_packets = 16 → min_th = 4: below 4 queued, RED is inert.
        let mut c = red_chan(11);
        c.enqueue(pkt(80), SimTime::ZERO); // in flight
        for _ in 0..3 {
            c.enqueue(pkt(80), SimTime::ZERO);
        }
        assert_eq!(c.stats.dropped, 0, "no drops below min_th");
        assert_eq!(c.queue_len(), 3);
    }

    #[test]
    fn red_drop_probability_ramps_with_backlog() {
        // At min_th the ramp starts at exactly p = 0: still no drops.
        assert_eq!(red_drops_at_backlog(11, 4, 200), 0);
        // Deep in the ramp the drop rate must be non-zero and below the
        // tail-drop regime.
        let deep = red_drops_at_backlog(11, 12, 400);
        assert!(deep > 0, "RED must drop in the upper ramp");
        assert!(deep < 400, "RED must not drop everything");
    }

    #[test]
    fn red_is_deterministic_under_a_fixed_seed() {
        assert_eq!(
            red_drops_at_backlog(42, 12, 400),
            red_drops_at_backlog(42, 12, 400)
        );
        // ... and the seed actually matters somewhere in the lane space.
        let differs = (0..16u64)
            .any(|s| red_drops_at_backlog(s, 12, 400) != red_drops_at_backlog(42, 12, 400));
        assert!(differs, "every seed giving identical drops is implausible");
    }

    fn impaired(impair: Impairment, seed: u64) -> TestChan {
        TestChan::new(
            LinkSpec::new(8_000_000, SimDuration::from_millis(1), 64).with_impairment(impair),
            seed,
        )
    }

    #[test]
    fn loss_impairment_drops_roughly_at_rate() {
        let mut c = impaired(
            Impairment {
                loss_ppm: 200_000, // 20 %
                ..Impairment::NONE
            },
            9,
        );
        for _ in 0..1_000 {
            c.enqueue(pkt(80), SimTime::ZERO);
            if c.occupancy() > 0 {
                while c.dequeue(SimTime::ZERO).1.is_some() {}
            }
        }
        assert!(
            (100..300).contains(&c.stats.lost),
            "20% loss over 1000 offers ⇒ ≈200 lost, got {}",
            c.stats.lost
        );
        assert_eq!(c.stats.lost + c.stats.enqueued, 1_000);
    }

    /// Whether `count` lies within ±5σ of a Binomial(`trials`, ppm / 1e6)
    /// mean.
    fn within_5_sigma(count: u64, trials: u64, ppm: u32) -> bool {
        let p = f64::from(ppm) / f64::from(PPM);
        let mean = trials as f64 * p;
        let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
        (count as f64 - mean).abs() <= 5.0 * sigma
    }

    /// Every impairment over 10^6 offers: each count within ±5σ of its
    /// configured rate (each draw sees only the offers earlier stages
    /// passed), every duplicate a byte-exact copy of its original's
    /// header, every jitter in `(0, jitter]`, and no arena slot leaked.
    #[test]
    fn impairment_rates_hold_over_a_million_offers() {
        const OFFERS: u32 = 1_000_000;
        let jitter = SimDuration::from_micros(500);
        let impair = Impairment {
            loss_ppm: 30_000,
            corrupt_ppm: 20_000,
            dup_ppm: 50_000,
            reorder_ppm: 100_000,
            jitter,
            ..Impairment::NONE
        };
        let mut c = impaired(impair, 13);
        let base = c.spec.delay;
        let mut sent = Vec::with_capacity(2);
        for i in 0..OFFERS {
            let header = i.to_be_bytes();
            let pkt = Packet::new(
                Addr::new(NodeId::from_index(0), 1),
                Addr::new(NodeId::from_index(1), 1),
                Protocol::Other(0),
                header,
                80,
            );
            let duplicated = c.stats.duplicated;
            c.enqueue(pkt, SimTime::ZERO);
            // Drain before the next offer, so the queue never tail-drops.
            sent.clear();
            while c.occupancy() > 0 {
                let reordered = c.stats.reordered;
                let extra = c.delivery_delay().as_nanos() - base.as_nanos();
                if c.stats.reordered > reordered {
                    assert!(
                        (1..=jitter.as_nanos()).contains(&extra),
                        "jitter {extra} ns"
                    );
                } else {
                    assert_eq!(extra, 0);
                }
                sent.push(c.dequeue(SimTime::ZERO).0);
            }
            if c.stats.duplicated > duplicated {
                assert_eq!(sent.len(), 2, "offer {i}: original and copy transmit");
                assert_eq!(sent[0].header.as_slice(), header.as_slice());
                assert_eq!(sent[1].header.as_slice(), header.as_slice());
            }
        }
        let s = c.stats;
        let offered = u64::from(OFFERS);
        assert!(within_5_sigma(s.lost, offered, impair.loss_ppm), "{s:?}");
        let survived = offered - s.lost;
        assert!(
            within_5_sigma(s.corrupted, survived, impair.corrupt_ppm),
            "{s:?}"
        );
        let admitted = survived - s.corrupted;
        assert!(
            within_5_sigma(s.duplicated, admitted, impair.dup_ppm),
            "{s:?}"
        );
        assert_eq!(s.dropped, 0);
        assert_eq!(s.enqueued, admitted + s.duplicated);
        assert_eq!(s.transmitted, s.enqueued);
        assert!(
            within_5_sigma(s.reordered, s.transmitted, impair.reorder_ppm),
            "{s:?}"
        );
        assert_eq!(c.arena.live(), 0, "every slot freed or taken");
    }

    #[test]
    fn duplication_enqueues_a_copy() {
        let mut c = impaired(
            Impairment {
                dup_ppm: PPM, // always duplicate
                ..Impairment::NONE
            },
            9,
        );
        c.enqueue(pkt(80), SimTime::ZERO);
        assert_eq!(c.stats.duplicated, 1);
        assert_eq!(c.stats.enqueued, 2, "original in flight + copy queued");
        assert_eq!(c.queue_len(), 1);
    }

    #[test]
    fn corruption_is_counted_separately_from_loss() {
        let mut c = impaired(
            Impairment {
                corrupt_ppm: PPM,
                ..Impairment::NONE
            },
            9,
        );
        for _ in 0..10 {
            c.enqueue(pkt(80), SimTime::ZERO);
        }
        assert_eq!(c.stats.corrupted, 10);
        assert_eq!(c.stats.lost, 0);
        assert_eq!(c.stats.enqueued, 0);
    }

    #[test]
    fn flap_outage_drops_without_consuming_draws() {
        let flap = FlapSpecFor::window();
        let mut a = impaired(
            Impairment {
                loss_ppm: 500_000,
                flap: Some(flap),
                ..Impairment::NONE
            },
            9,
        );
        let mut b = impaired(
            Impairment {
                loss_ppm: 500_000,
                ..Impairment::NONE
            },
            9,
        );
        // During the outage only `a` drops, and without drawing: both lanes
        // stay in lockstep, so post-outage decisions are identical.
        let down = SimTime::from_millis(1_050);
        a.enqueue(pkt(80), down);
        assert_eq!(a.stats.flap_dropped, 1);
        let up = SimTime::from_millis(3_500);
        for _ in 0..50 {
            a.enqueue(pkt(80), up);
            b.enqueue(pkt(80), up);
        }
        assert_eq!(a.stats.lost, b.stats.lost, "flap must not consume draws");
    }

    #[test]
    fn reorder_jitter_delays_some_deliveries() {
        let mut c = impaired(
            Impairment {
                reorder_ppm: 500_000, // 50 %
                jitter: SimDuration::from_millis(2),
                ..Impairment::NONE
            },
            9,
        );
        let base = c.spec.delay;
        let mut jittered = 0;
        for _ in 0..100 {
            let d = c.delivery_delay();
            assert!(d >= base);
            assert!(d <= base + SimDuration::from_millis(2));
            if d > base {
                jittered += 1;
            }
        }
        assert!(
            (20..80).contains(&jittered),
            "≈50% jittered, got {jittered}"
        );
        assert_eq!(c.stats.reordered, jittered);
    }

    #[test]
    fn unimpaired_channel_never_touches_its_impairment_lane() {
        // Two channels, same seed/index: one plain, one that becomes
        // impaired only for a later packet via spec mutation. If the plain
        // enqueues consumed impairment draws, the lanes would diverge.
        let mut plain = chan();
        let mut check = chan();
        for _ in 0..20 {
            plain.enqueue(pkt(80), SimTime::ZERO);
            check.enqueue(pkt(80), SimTime::ZERO);
        }
        plain.spec.impair.loss_ppm = 500_000;
        check.spec.impair.loss_ppm = 500_000;
        for _ in 0..20 {
            assert_eq!(
                plain.enqueue(pkt(80), SimTime::ZERO),
                check.enqueue(pkt(80), SimTime::ZERO)
            );
        }
        assert_eq!(plain.stats, check.stats);
    }

    #[test]
    fn lane_seeds_are_distinct_across_lanes_and_salts() {
        let mut seen = std::collections::BTreeSet::new();
        for lane in 0..32 {
            for salt in [LANE_AQM, LANE_IMPAIR] {
                assert!(seen.insert(lane_seed(7, lane, salt)), "lane seed collision");
            }
        }
    }

    /// How one offered packet, or its duplicate, left a channel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Fate {
        Flap,
        Lost,
        Corrupted,
        /// Tail drop or RED.
        QueueDrop,
        Delivered(SimTime),
    }

    /// Offer `index`, numbered in its header.
    fn offer(index: usize, payload: u32) -> Packet {
        Packet::new(
            Addr::new(NodeId::from_index(0), 1),
            Addr::new(NodeId::from_index(1), 1),
            Protocol::Other(0),
            (index as u32).to_be_bytes(),
            payload,
        )
    }

    /// Feeds `offers` (`(time, payload)`, in time order) to a `Channel`,
    /// completing each transmission once it is due (before an offer at the
    /// same instant), and reports each offer's fates.
    fn channel_fates(spec: LinkSpec, seed: u64, offers: &[(SimTime, u32)]) -> Vec<Vec<Fate>> {
        let mut c = TestChan::new(spec, seed);
        let mut fates = vec![Vec::new(); offers.len()];
        let mut done = None;
        for i in 0..=offers.len() {
            let now = offers.get(i).map_or(SimTime::MAX, |o| o.0);
            while let Some(t) = done.filter(|&t| t <= now) {
                let delay = c.delivery_delay();
                let (packet, next) = c.dequeue(t);
                let index = u32::from_be_bytes(packet.header.as_slice().try_into().unwrap());
                fates[index as usize].push(Fate::Delivered(t + delay));
                done = next;
            }
            let Some(&(_, payload)) = offers.get(i) else {
                break;
            };
            let before = c.stats;
            done = done.or(c.enqueue(offer(i, payload), now));
            let s = c.stats;
            for (count, fate) in [
                (s.flap_dropped - before.flap_dropped, Fate::Flap),
                (s.lost - before.lost, Fate::Lost),
                (s.corrupted - before.corrupted, Fate::Corrupted),
                (s.dropped - before.dropped, Fate::QueueDrop),
            ] {
                fates[i].extend(std::iter::repeat_n(fate, count as usize));
            }
        }
        fates
    }

    /// One channel direction written from the contract in [`Channel`]'s
    /// docs, not from its code: a flap window drops without a draw; then
    /// loss and corruption, each its own impairment-lane draw and only when
    /// its rate is non-zero; a duplicate is admitted right behind its
    /// original; admission tail-drops at capacity, else RED draws from the
    /// AQM lane; each completion adds, with the reorder rate, a uniform
    /// extra delay in `(0, jitter]` to the propagation delay.
    struct LinkModel {
        spec: LinkSpec,
        impair: SmallRng,
        aqm: SmallRng,
        /// Waiting packets: offer index and wire length.
        queue: VecDeque<(usize, u32)>,
        /// The packet on the wire and when its transmission ends.
        sending: Option<(usize, SimTime)>,
    }

    impl LinkModel {
        fn chance(&mut self, ppm: u32) -> bool {
            ppm > 0 && self.impair.gen_range(0..PPM) < ppm
        }

        fn red_drops(&mut self) -> bool {
            let (cap, backlog) = (self.spec.queue_packets, self.queue.len());
            let min = cap / 4;
            if self.spec.aqm != Aqm::Red || backlog < min {
                return false;
            }
            let p = 0.15 * (backlog - min) as f64 / (cap - min).max(1) as f64;
            self.aqm.gen::<f64>() < p
        }

        fn fates(spec: LinkSpec, seed: u64, offers: &[(SimTime, u32)]) -> Vec<Vec<Fate>> {
            let lane = |salt| SmallRng::seed_from_u64(lane_seed(seed, 0, salt));
            let mut m = LinkModel {
                spec,
                impair: lane(LANE_IMPAIR),
                aqm: lane(LANE_AQM),
                queue: VecDeque::new(),
                sending: None,
            };
            let (impair, tx) = (spec.impair, |len| tx_delay(len, spec.bandwidth_bps));
            let mut fates = vec![Vec::new(); offers.len()];
            for i in 0..=offers.len() {
                let now = offers.get(i).map_or(SimTime::MAX, |o| o.0);
                while let Some((j, end)) = m.sending.filter(|s| s.1 <= now) {
                    let mut at = end + spec.delay;
                    if m.chance(impair.reorder_ppm) && impair.jitter > SimDuration::ZERO {
                        at += SimDuration::from_nanos(
                            m.impair.gen_range(1..=impair.jitter.as_nanos()),
                        );
                    }
                    fates[j].push(Fate::Delivered(at));
                    m.sending = m.queue.pop_front().map(|(k, len)| (k, end + tx(len)));
                }
                let Some(&(_, payload)) = offers.get(i) else {
                    break;
                };
                let dropped = if impair.flap.is_some_and(|f| f.is_down(now)) {
                    Some(Fate::Flap)
                } else if m.chance(impair.loss_ppm) {
                    Some(Fate::Lost)
                } else if m.chance(impair.corrupt_ppm) {
                    Some(Fate::Corrupted)
                } else {
                    None
                };
                if let Some(fate) = dropped {
                    fates[i].push(fate);
                    continue;
                }
                let len = offer(i, payload).wire_len();
                for _ in 0..1 + usize::from(m.chance(impair.dup_ppm)) {
                    if m.sending.is_none() {
                        m.sending = Some((i, now + tx(len)));
                    } else if m.queue.len() >= spec.queue_packets || m.red_drops() {
                        fates[i].push(Fate::QueueDrop);
                    } else {
                        m.queue.push_back((i, len));
                    }
                }
            }
            fates
        }
    }

    /// `Channel` against [`LinkModel`] on seeded offer streams, packet for
    /// packet: each offer's drop reason or delivery time, duplicates
    /// included. Three specs rotate: everything at once on a RED link with
    /// flap windows; loss and reorder off, so their draws must not happen;
    /// reorder with zero jitter, which draws but delays nothing.
    #[test]
    fn channel_matches_an_independent_link_model() {
        let flap = crate::impair::FlapSpec {
            first_down: SimTime::from_millis(2),
            down_for: SimDuration::from_millis(1),
            period: SimDuration::from_millis(9),
        };
        let specs = [
            Impairment {
                loss_ppm: 80_000,
                corrupt_ppm: 60_000,
                dup_ppm: 100_000,
                reorder_ppm: 200_000,
                jitter: SimDuration::from_micros(700),
                flap: Some(flap),
            },
            Impairment {
                corrupt_ppm: 100_000,
                dup_ppm: 150_000,
                ..Impairment::NONE
            },
            Impairment {
                loss_ppm: 50_000,
                reorder_ppm: 300_000,
                ..Impairment::NONE
            },
        ];
        for seed in 0..24u64 {
            let mut spec = LinkSpec::new(8_000_000, SimDuration::from_millis(1), 8)
                .with_impairment(specs[seed as usize % specs.len()]);
            if seed % 2 == 0 {
                spec = spec.with_red();
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut now = SimTime::ZERO;
            let offers: Vec<(SimTime, u32)> = (0..400)
                .map(|_| {
                    // Bursts, gaps shorter than a transmission, and idle
                    // stretches.
                    let gap: [u64; 3] = [0, rng.gen_range(1..300), rng.gen_range(300..3_000)];
                    now += SimDuration::from_micros(gap[rng.gen_range(0..3usize)]);
                    (now, rng.gen_range(0..1_200))
                })
                .collect();
            let sorted = |mut fates: Vec<Vec<Fate>>| {
                fates.iter_mut().for_each(|f| f.sort());
                fates
            };
            assert_eq!(
                sorted(channel_fates(spec, seed, &offers)),
                sorted(LinkModel::fates(spec, seed, &offers)),
                "seed {seed}"
            );
        }
    }

    /// Helper namespace so the flap test reads clearly.
    struct FlapSpecFor;
    impl FlapSpecFor {
        fn window() -> crate::impair::FlapSpec {
            crate::impair::FlapSpec {
                first_down: SimTime::from_secs(1),
                down_for: SimDuration::from_millis(100),
                period: SimDuration::from_secs(1),
            }
        }
    }
}
