use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::agent::{Agent, Ctx, TimerHandle};
use crate::arena::{PacketArena, PacketRef};
use crate::fxhash::FxHashMap;
use crate::link::{Channel, ChannelStats, LinkId, LinkSpec, Parked};
use crate::packet::Packet;
use crate::sched::{EventKind, Popped, Queue, Scheduled};
use crate::tap::{Tap, TapCtx};
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Identifier of a node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Builds a `NodeId` from a raw index (for tests and serialization).
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

/// Buffered side effects produced by agent and tap callbacks.
#[derive(Debug, Clone)]
pub(crate) enum Command {
    Send {
        from: NodeId,
        packet: Packet,
    },
    SetTimer {
        node: NodeId,
        handle: TimerHandle,
        tag: u64,
    },
    CancelTimer {
        handle: TimerHandle,
    },
    TapEmit {
        packet: Packet,
        toward_b: bool,
        delay: SimDuration,
    },
    TapTimer {
        at: SimTime,
        tag: u64,
    },
}

struct NodeSlot {
    name: String,
    agent: Option<Box<dyn Agent>>,
}

/// One pending delivery parked in a channel's in-order FIFO instead of the
/// global event queue (see [`Simulator::push_delivery`]). `seq` is a real
/// global sequence number — the entry consumed it at push time, exactly as
/// a per-packet `Deliver` event would have, so batching moves no other
/// event's key.
#[derive(Debug, Clone, Copy)]
struct FifoEntry {
    at: SimTime,
    seq: u64,
    packet: PacketRef,
}

#[derive(Debug, Clone)]
struct ChanSlot {
    chan: Channel,
    from: NodeId,
    to: NodeId,
    link: usize,
    /// Delivery FIFO: consecutive deliveries of an in-order channel drain
    /// inline from here without a global-queue round trip per packet.
    /// Always key-sorted: entries are appended in nondecreasing
    /// `(at, seq)` order because an in-order channel's transmissions
    /// complete in time order and its delivery delay is constant.
    fifo: VecDeque<FifoEntry>,
}

struct LinkSlot {
    a: NodeId,
    b: NodeId,
    /// Channel indices: `[a->b, b->a]`.
    chans: [usize; 2],
    tap: Option<Box<dyn Tap>>,
}

/// Scheduled control actions are `Arc<dyn Fn>` (not `Box<dyn FnOnce>`) so a
/// forked simulator shares the still-pending controls of its parent: each
/// run invokes its own clone of the closure exactly once.
type ControlFn = Arc<dyn Fn(&mut dyn Agent, &mut Ctx<'_>) + Send + Sync>;

/// Event-loop counters exported by [`Simulator::stats`].
///
/// These are plain totals kept on the simulator itself (not routed
/// through an observer) so the hot loop stays free of virtual calls;
/// callers that care read them once after a run. They are deliberately
/// *not* part of any run-equality comparison: `timers_purged` depends on
/// how often `run_until` is re-entered (a record consumed by its entry's
/// pop is not a purge), and `queue_depth_hwm` on delivery batching (an
/// in-order channel parks its deliveries in a FIFO behind one queue
/// marker). Equality comparisons go through run outcomes, not these
/// internals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched (dead timer fires excluded).
    pub events_processed: u64,
    /// `CancelTimer` commands issued.
    pub timers_cancelled: u64,
    /// Cancellation records dropped after their fire time passed without
    /// their entry popping: a cancel issued after the timer fired, or an
    /// entry a spent budget left queued.
    pub timers_purged: u64,
    /// High-water mark of pending entries (global queue plus per-channel
    /// delivery FIFOs) over the simulator's lifetime.
    pub queue_depth_hwm: u64,
    /// Packet-arena slots created because the free list was empty (one
    /// insert per send or tap emission, plus one per duplicate).
    pub arena_alloc: u64,
    /// Packet-arena slots recycled from the free list.
    pub arena_reuse: u64,
}

/// The discrete-event network simulator.
///
/// Build a topology with [`add_node`](Simulator::add_node) /
/// [`add_link`](Simulator::add_link), install protocol agents with
/// [`set_agent`](Simulator::set_agent), optionally attach an attack-proxy
/// [`Tap`] to a link, then [`run_until`](Simulator::run_until) a deadline.
/// Identical inputs and seed produce identical runs.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    /// The root seed every RNG lane is derived from: the agents' lane
    /// seeds directly from it, and each channel derives private AQM and
    /// impairment lanes from `(seed, channel index, lane salt)` — so
    /// adding draws in one subsystem never reshuffles another's sequence.
    seed: u64,
    queue: Queue,
    /// Where every packet in the network is parked, from the send or tap
    /// emission that hands it over until an agent or tap receives it:
    /// channels, delivery FIFOs and events carry 4-byte refs.
    arena: PacketArena,
    nodes: Vec<NodeSlot>,
    chans: Vec<ChanSlot>,
    links: Vec<LinkSlot>,
    next_hop: Vec<Vec<Option<usize>>>,
    routes_dirty: bool,
    next_timer: u64,
    next_packet_id: u64,
    controls: FxHashMap<u64, (NodeId, ControlFn)>,
    next_control: u64,
    /// The agents' RNG lane (exposed to agent callbacks through [`Ctx`]).
    /// Channels own their AQM/impairment lanes; nothing else draws here.
    agent_rng: SmallRng,
    started: bool,
    events_processed: u64,
    /// Total `CancelTimer` commands ever issued (see [`SimStats`]).
    timers_cancelled: u64,
    /// Total entries across every channel's delivery FIFO.
    fifo_len: usize,
    /// High-water mark of `queue.len() + fifo_len`, for observability.
    queue_depth_hwm: u64,
    /// The deadline of the `run_until` call in progress, consulted by the
    /// inline FIFO drain so batched deliveries stop exactly where the run
    /// loop would have stopped dispatching their per-packet events.
    run_deadline: SimTime,
    event_budget: Option<u64>,
    budget_exhausted: bool,
    pending: Vec<Command>,
    trace: Option<Trace>,
    /// The last dispatched `(at, seq)` key, ghosts and inline deliveries
    /// included: debug builds assert every dispatch is strictly after it.
    #[cfg(debug_assertions)]
    last_key: Option<(SimTime, u64)>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("pending_events", &(self.queue.len() + self.fifo_len))
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            seed,
            queue: Queue::new(),
            arena: PacketArena::default(),
            nodes: Vec::new(),
            chans: Vec::new(),
            links: Vec::new(),
            next_hop: Vec::new(),
            routes_dirty: true,
            next_timer: 0,
            next_packet_id: 1,
            controls: FxHashMap::default(),
            next_control: 0,
            agent_rng: SmallRng::seed_from_u64(seed),
            started: false,
            events_processed: 0,
            timers_cancelled: 0,
            fifo_len: 0,
            queue_depth_hwm: 0,
            run_deadline: SimTime::ZERO,
            event_budget: None,
            budget_exhausted: false,
            pending: Vec::new(),
            trace: None,
            #[cfg(debug_assertions)]
            last_key: None,
        }
    }

    /// Caps the total number of events this simulator will ever process.
    ///
    /// A livelocked or retransmission-storm run would otherwise grind
    /// through events forever inside one `run_until` call; the budget turns
    /// that into a deterministic truncation: event ordering is seeded, so
    /// the same spec and budget always stop at exactly the same event.
    /// Once exhausted, further [`run_until`](Simulator::run_until) calls
    /// only advance the clock — no more events are dispatched — and
    /// [`budget_exhausted`](Simulator::budget_exhausted) reports it.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Whether the event budget stopped the simulation early.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Enables packet capture on every link, keeping up to `capacity`
    /// records (the simulation's `tcpdump`; see [`Trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The capture buffer, if [`enable_trace`](Simulator::enable_trace)
    /// was called.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Offers a parked packet to a channel, recording it in the trace.
    fn enqueue_on_chan(&mut self, chan: usize, packet: PacketRef) {
        let slot = &mut self.chans[chan];
        if let Some(trace) = self.trace.as_mut() {
            let record = self.arena.get(packet);
            trace.record(self.now, LinkId(slot.link), slot.from, slot.to, record);
        }
        if let Some(done) = slot.chan.enqueue(packet, &mut self.arena, self.now) {
            self.push(done, EventKind::ChanDequeue { chan: chan as u32 });
        }
    }

    /// Adds a node with no agent yet.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        // Events store node indices as `u32` (see `EventKind`).
        assert!(self.nodes.len() < u32::MAX as usize, "too many nodes");
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot {
            name: name.into(),
            agent: None,
        });
        self.routes_dirty = true;
        id
    }

    /// Installs (or replaces) the agent running on `node`.
    pub fn set_agent<A: Agent>(&mut self, node: NodeId, agent: A) {
        self.nodes[node.0].agent = Some(Box::new(agent));
    }

    /// Connects two nodes with a duplex link.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        // Events store channel and link indices as `u32` (see `EventKind`).
        assert!(self.chans.len() < u32::MAX as usize - 1, "too many links");
        let link = self.links.len();
        let c_ab = self.chans.len();
        self.chans.push(ChanSlot {
            chan: Channel::new(spec, self.seed, c_ab),
            from: a,
            to: b,
            link,
            fifo: VecDeque::new(),
        });
        let c_ba = self.chans.len();
        self.chans.push(ChanSlot {
            chan: Channel::new(spec, self.seed, c_ba),
            from: b,
            to: a,
            link,
            fifo: VecDeque::new(),
        });
        self.links.push(LinkSlot {
            a,
            b,
            chans: [c_ab, c_ba],
            tap: None,
        });
        self.routes_dirty = true;
        LinkId(link)
    }

    /// Attaches a packet interceptor to a link (one per link).
    pub fn attach_tap<T: Tap>(&mut self, link: LinkId, tap: T) {
        self.links[link.0].tap = Some(Box::new(tap));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (a proxy for simulation cost).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Event-loop counters for observability. Forked simulators inherit
    /// their parent's totals (like [`events_processed`]), so a fork's
    /// final stats describe prefix + continuation, the same work a
    /// from-scratch run would have done.
    ///
    /// [`events_processed`]: Simulator::events_processed
    pub fn stats(&self) -> SimStats {
        SimStats {
            events_processed: self.events_processed,
            timers_cancelled: self.timers_cancelled,
            timers_purged: self.queue.timers_purged(),
            queue_depth_hwm: self.queue_depth_hwm,
            arena_alloc: self.arena.allocs(),
            arena_reuse: self.arena.reuses(),
        }
    }

    /// Deterministic estimate of the heap bytes [`fork`](Simulator::fork)
    /// copies right now: the event queue and delivery FIFOs, the packet
    /// arena (every parked packet, channel residents included), the
    /// channels' packet refs and bookkeeping maps. Agent/tap internals are
    /// opaque boxes, so this is a lower bound — useful for comparing fork
    /// costs, not for accounting exact allocations. Like
    /// [`SimStats::queue_depth_hwm`], it sees delivery batching (a batched
    /// channel's pending deliveries are FIFO entries behind one queue
    /// marker), so run-equality comparisons must not include it.
    pub fn approx_clone_bytes(&self) -> u64 {
        let queue = self.queue.len() * std::mem::size_of::<Scheduled>();
        let fifos = self.fifo_len * std::mem::size_of::<FifoEntry>();
        let arena = self.arena.capacity() * std::mem::size_of::<Packet>();
        let refs: usize = self
            .chans
            .iter()
            .map(|c| c.chan.occupancy() * std::mem::size_of::<Parked>())
            .sum();
        let maps = self.queue.cancelled_len() * 24 + self.controls.len() * 24;
        (queue + fifos + arena + refs + maps) as u64
    }

    /// A node's name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Immutable access to the agent on `node`, downcast to its concrete
    /// type. Returns `None` if the node has no agent or the type is wrong.
    pub fn agent<A: Agent>(&self, node: NodeId) -> Option<&A> {
        let agent = self.nodes[node.0].agent.as_deref()?;
        let any: &dyn Any = agent;
        any.downcast_ref()
    }

    /// Mutable access to the agent on `node`, downcast to its concrete type.
    pub fn agent_mut<A: Agent>(&mut self, node: NodeId) -> Option<&mut A> {
        let agent = self.nodes[node.0].agent.as_deref_mut()?;
        let any: &mut dyn Any = agent;
        any.downcast_mut()
    }

    /// Immutable access to the tap on `link`, downcast to its concrete type.
    pub fn tap<T: Tap>(&self, link: LinkId) -> Option<&T> {
        let tap = self.links[link.0].tap.as_deref()?;
        let any: &dyn Any = tap;
        any.downcast_ref()
    }

    /// Mutable access to the tap on `link`, downcast to its concrete type
    /// (the snapshot-fork executor rewrites a forked baseline proxy's rules
    /// through this).
    pub fn tap_mut<T: Tap>(&mut self, link: LinkId) -> Option<&mut T> {
        let tap = self.links[link.0].tap.as_deref_mut()?;
        let any: &mut dyn Any = tap;
        any.downcast_mut()
    }

    /// Deep-clones the whole simulator — event queue, packet arena,
    /// channels and their delivery FIFOs, agents, taps, RNG, pending
    /// controls — producing an independent run that continues from this
    /// exact instant. Determinism makes the fork exact: a fork left
    /// untouched replays byte-for-byte what its parent does, even when the
    /// fork lands mid-way through a timer-wheel cascade (the wheel's
    /// position and slot contents clone verbatim).
    ///
    /// Returns `None` if any installed agent or tap does not implement
    /// [`Agent::boxed_clone`] / [`Tap::boxed_clone`]. Must not be called
    /// from inside a callback (no commands may be pending).
    pub fn fork(&self) -> Option<Simulator> {
        debug_assert!(self.pending.is_empty(), "fork inside a callback");
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let agent = match &n.agent {
                Some(a) => Some(a.boxed_clone()?),
                None => None,
            };
            nodes.push(NodeSlot {
                name: n.name.clone(),
                agent,
            });
        }
        let mut links = Vec::with_capacity(self.links.len());
        for l in &self.links {
            let tap = match &l.tap {
                Some(t) => Some(t.boxed_clone()?),
                None => None,
            };
            links.push(LinkSlot {
                a: l.a,
                b: l.b,
                chans: l.chans,
                tap,
            });
        }
        Some(Simulator {
            now: self.now,
            seq: self.seq,
            seed: self.seed,
            queue: self.queue.clone(),
            arena: self.arena.clone(),
            nodes,
            chans: self.chans.clone(),
            links,
            next_hop: self.next_hop.clone(),
            routes_dirty: self.routes_dirty,
            next_timer: self.next_timer,
            next_packet_id: self.next_packet_id,
            controls: self.controls.clone(),
            next_control: self.next_control,
            agent_rng: self.agent_rng.clone(),
            started: self.started,
            events_processed: self.events_processed,
            timers_cancelled: self.timers_cancelled,
            fifo_len: self.fifo_len,
            queue_depth_hwm: self.queue_depth_hwm,
            run_deadline: self.run_deadline,
            event_budget: self.event_budget,
            budget_exhausted: self.budget_exhausted,
            pending: Vec::new(),
            trace: self.trace.clone(),
            #[cfg(debug_assertions)]
            last_key: self.last_key,
        })
    }

    /// Per-direction statistics for a link: `(a→b, b→a)`.
    pub fn link_stats(&self, link: LinkId) -> (ChannelStats, ChannelStats) {
        let l = &self.links[link.0];
        (
            self.chans[l.chans[0]].chan.stats,
            self.chans[l.chans[1]].chan.stats,
        )
    }

    /// Impairment draw totals summed over every channel, for observability:
    /// `(lost, duplicated, corrupted, reordered, flap_dropped)`.
    pub fn impairment_totals(&self) -> (u64, u64, u64, u64, u64) {
        let mut totals = (0, 0, 0, 0, 0);
        for slot in &self.chans {
            let s = &slot.chan.stats;
            totals.0 += s.lost;
            totals.1 += s.duplicated;
            totals.2 += s.corrupted;
            totals.3 += s.reordered;
            totals.4 += s.flap_dropped;
        }
        totals
    }

    /// Schedules a control action: at `at`, run `f` against the agent on
    /// `node` with a live [`Ctx`]. This is how the executor scripts
    /// scenarios (start transfers, abort clients, close server apps).
    pub fn schedule_control<F>(&mut self, at: SimTime, node: NodeId, f: F)
    where
        F: Fn(&mut dyn Agent, &mut Ctx<'_>) + Send + Sync + 'static,
    {
        let key = self.next_control;
        self.next_control += 1;
        self.controls.insert(key, (node, Arc::new(f)));
        self.push(at, EventKind::Control { key });
    }

    /// Runs the simulation until simulated time `deadline` (inclusive of
    /// events scheduled exactly at it). On the first call, every agent's
    /// `on_start` and every tap's `on_start` run at the current time.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.routes_dirty {
            self.compute_routes();
        }
        self.run_deadline = deadline;
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.with_agent(NodeId(i), |agent, ctx| agent.on_start(ctx));
            }
            for li in 0..self.links.len() {
                self.with_tap(li, |tap, ctx| tap.on_start(ctx));
            }
        }
        loop {
            if self
                .event_budget
                .is_some_and(|budget| self.events_processed >= budget)
            {
                // A spent budget truncates the run only if something was
                // still due by the deadline.
                if self
                    .queue
                    .peek_key()
                    .is_some_and(|(at, _seq)| at <= deadline)
                {
                    self.budget_exhausted = true;
                }
                break;
            }
            let Some(popped) = self.queue.pop_due(deadline) else {
                break;
            };
            match popped {
                // A cancelled timer's entry: advance the clock and move
                // on. Ghosts are not dispatched and not counted.
                Popped::Ghost(key) => {
                    #[cfg(debug_assertions)]
                    self.check_dispatch_order(key);
                    self.now = key.0;
                }
                Popped::Event(ev) => {
                    #[cfg(debug_assertions)]
                    self.check_dispatch_order((ev.at, ev.seq));
                    self.now = ev.at;
                    self.events_processed += 1;
                    self.dispatch(ev.kind);
                }
            }
        }
        self.now = deadline;
        // A record that fires by the deadline can no longer be consumed:
        // its entry popped as a ghost, or the cancel came after the fire,
        // or a spent budget ended dispatch for good.
        self.queue.purge_cancelled(deadline);
        for li in 0..self.links.len() {
            if let Some(tap) = self.links[li].tap.as_deref_mut() {
                tap.on_finish(deadline);
            }
        }
    }

    /// Every pushed key lands after the key being dispatched, so keys that
    /// strictly increase across dispatches mean each dispatch took the
    /// global minimum: the `(at, seq)` order one binary heap over every
    /// pending event would pop, delivery batching included.
    #[cfg(debug_assertions)]
    fn check_dispatch_order(&mut self, key: (SimTime, u64)) {
        assert!(
            key.0 >= self.now,
            "time went backwards: {key:?} at {:?}",
            self.now
        );
        assert!(
            Some(key) > self.last_key,
            "dispatch order broken: {key:?} after {:?}",
            self.last_key
        );
        self.last_key = Some(key);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { node, packet } => {
                self.deliver(NodeId(node as usize), packet);
            }
            EventKind::TimerFire { node, tag, .. } => {
                // A cancelled timer popped as `Popped::Ghost` instead.
                self.with_agent(NodeId(node as usize), |agent, ctx| agent.on_timer(ctx, tag));
            }
            EventKind::ChanDequeue { chan } => {
                let chan = chan as usize;
                let now = self.now;
                let slot = &mut self.chans[chan];
                // Reorder jitter is drawn per delivered packet from the
                // channel's own impairment lane (a plain spec delay when
                // no reordering is configured).
                let delay = slot.chan.delivery_delay();
                let to = slot.to;
                let (done, next) = slot.chan.dequeue(now);
                if let Some(t) = next {
                    // The same channel's next completion: the same event.
                    self.push(t, kind);
                }
                self.push_delivery(chan, to, now + delay, done.packet);
            }
            EventKind::ChanEnqueue { chan, packet } => {
                self.enqueue_on_chan(chan as usize, packet);
            }
            EventKind::ChanDeliver { chan } => {
                self.dispatch_chan_deliver(chan as usize);
            }
            EventKind::TapTimerFire { link, tag } => {
                self.with_tap(link as usize, |tap, ctx| tap.on_timer(ctx, tag));
            }
            EventKind::Control { key } => {
                if let Some((node, f)) = self.controls.remove(&key) {
                    self.with_agent(node, |agent, ctx| f(agent, ctx));
                }
            }
        }
    }

    /// Hands an arrived packet to its destination agent — the one place
    /// a packet leaves the arena besides a tap — or forwards it along the
    /// route from an intermediate hop.
    fn deliver(&mut self, node: NodeId, packet: PacketRef) {
        if self.arena.get(packet).dst.node == node {
            let packet = self.arena.take(packet);
            self.with_agent(node, |agent, ctx| agent.on_packet(ctx, packet));
        } else {
            self.route_send(node, packet);
        }
    }

    /// Schedules delivery of a packet that finished transmitting on `chan`.
    ///
    /// Deliveries of an in-order channel park in the channel's FIFO; only
    /// the FIFO head is represented in the global queue, by a `ChanDeliver`
    /// marker carrying the head's exact `(at, seq)` key. Every entry still
    /// consumes one global sequence number at push time — the one its
    /// per-packet `Deliver` event would have consumed — so batching leaves
    /// the total event order unchanged. Reorder-jittered channels are not
    /// FIFO and take the per-packet path.
    fn push_delivery(&mut self, chan: usize, to: NodeId, at: SimTime, packet: PacketRef) {
        if !self.chans[chan].chan.delivers_in_order() {
            self.push(
                at,
                EventKind::Deliver {
                    node: to.0 as u32,
                    packet,
                },
            );
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        let slot = &mut self.chans[chan];
        debug_assert!(
            slot.fifo.back().is_none_or(|b| (b.at, b.seq) < (at, seq)),
            "in-order channel produced out-of-order delivery"
        );
        let was_empty = slot.fifo.is_empty();
        slot.fifo.push_back(FifoEntry { at, seq, packet });
        self.fifo_len += 1;
        if was_empty {
            // The marker reuses the head's key; it consumes no sequence
            // number of its own.
            self.queue.push(Scheduled {
                at,
                seq,
                kind: EventKind::ChanDeliver { chan: chan as u32 },
            });
        }
        self.note_depth();
    }

    /// Dispatches a `ChanDeliver` marker: delivers the FIFO head (already
    /// validated and counted by the run loop, since the marker carries the
    /// head's key), then drains consecutive entries inline while each
    /// remains the globally next event — re-applying the run loop's
    /// deadline/budget checks per delivery so truncation lands exactly
    /// where per-packet `Deliver` events would have stopped.
    fn dispatch_chan_deliver(&mut self, chan: usize) {
        let entry = self.chans[chan]
            .fifo
            .pop_front()
            .expect("ChanDeliver marker without a FIFO entry");
        self.fifo_len -= 1;
        debug_assert_eq!(entry.at, self.now, "marker key must match FIFO head");
        let to = self.chans[chan].to;
        self.deliver(to, entry.packet);
        loop {
            let Some(front) = self.chans[chan].fifo.front() else {
                // FIFO drained; the next delivery will re-arm a marker.
                return;
            };
            let key = (front.at, front.seq);
            let blocked = key.0 > self.run_deadline
                || self
                    .event_budget
                    .is_some_and(|b| self.events_processed >= b)
                || self.queue.peek_key().is_some_and(|qk| qk < key);
            if blocked {
                // Hand control back to the run loop: re-arm the marker at
                // the new head's key so global ordering resumes there. The
                // loop re-derives the right outcome (other event first,
                // deadline break, budget flag) from its own checks.
                self.queue.push(Scheduled {
                    at: key.0,
                    seq: key.1,
                    kind: EventKind::ChanDeliver { chan: chan as u32 },
                });
                return;
            }
            let entry = self.chans[chan].fifo.pop_front().expect("peeked front");
            self.fifo_len -= 1;
            #[cfg(debug_assertions)]
            self.check_dispatch_order(key);
            self.now = entry.at;
            self.events_processed += 1;
            let to = self.chans[chan].to;
            self.deliver(to, entry.packet);
        }
    }

    /// Runs an agent callback with a fresh `Ctx`, then applies the buffered
    /// commands.
    fn with_agent<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut Ctx<'_>),
    {
        let Some(mut agent) = self.nodes[node.0].agent.take() else {
            return;
        };
        let mut commands = std::mem::take(&mut self.pending);
        {
            let mut ctx = Ctx {
                now: self.now,
                node,
                commands: &mut commands,
                rng: &mut self.agent_rng,
                next_timer: &mut self.next_timer,
            };
            f(agent.as_mut(), &mut ctx);
        }
        self.nodes[node.0].agent = Some(agent);
        self.apply(commands, None);
    }

    /// Runs a tap callback with a fresh `TapCtx`, then applies the buffered
    /// commands (tap emissions target this link's channels).
    fn with_tap<F>(&mut self, link: usize, f: F)
    where
        F: FnOnce(&mut dyn Tap, &mut TapCtx<'_>),
    {
        let Some(mut tap) = self.links[link].tap.take() else {
            return;
        };
        let mut commands = std::mem::take(&mut self.pending);
        {
            let mut ctx = TapCtx {
                now: self.now,
                link_a: self.links[link].a,
                link_b: self.links[link].b,
                commands: &mut commands,
            };
            f(tap.as_mut(), &mut ctx);
        }
        self.links[link].tap = Some(tap);
        self.apply(commands, Some(link));
    }

    fn apply(&mut self, mut commands: Vec<Command>, tap_link: Option<usize>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { from, packet } => {
                    let packet = self.park(packet);
                    self.route_send(from, packet);
                }
                Command::SetTimer { node, handle, tag } => {
                    self.push(
                        handle.at.max(self.now),
                        EventKind::TimerFire {
                            node: node.0 as u32,
                            handle: handle.id,
                            tag,
                        },
                    );
                }
                Command::CancelTimer { handle } => {
                    // The entry stays queued and pops as a ghost.
                    self.timers_cancelled += 1;
                    self.queue.cancel_timer(handle.id, handle.at);
                }
                Command::TapEmit {
                    packet,
                    toward_b,
                    delay,
                } => {
                    let link = tap_link.expect("TapEmit outside a tap callback");
                    let packet = self.park(packet);
                    let chan = self.links[link].chans[if toward_b { 0 } else { 1 }];
                    if delay == SimDuration::ZERO {
                        self.enqueue_on_chan(chan, packet);
                    } else {
                        self.push(
                            self.now + delay,
                            EventKind::ChanEnqueue {
                                chan: chan as u32,
                                packet,
                            },
                        );
                    }
                }
                Command::TapTimer { at, tag } => {
                    let link = tap_link.expect("TapTimer outside a tap callback");
                    self.push(
                        at.max(self.now),
                        EventKind::TapTimerFire {
                            link: link as u32,
                            tag,
                        },
                    );
                }
            }
        }
        // Hand the (now empty) buffer back for reuse.
        if self.pending.capacity() < commands.capacity() {
            self.pending = commands;
        }
    }

    /// Parks a packet an agent or tap handed over, assigning its id on
    /// first send. It stays parked until an agent or tap receives it.
    fn park(&mut self, mut packet: Packet) -> PacketRef {
        if packet.id == 0 {
            packet.id = self.next_packet_id;
            self.next_packet_id += 1;
        }
        self.arena.insert(packet)
    }

    /// Sends a parked packet from `from` toward its destination: looks up
    /// the next hop, hands it by value to the link's tap if one is
    /// attached, otherwise enqueues it on the channel.
    fn route_send(&mut self, from: NodeId, packet: PacketRef) {
        let dst = self.arena.get(packet).dst.node;
        if dst == from {
            // Loopback: deliver immediately.
            self.push(
                self.now,
                EventKind::Deliver {
                    node: from.0 as u32,
                    packet,
                },
            );
            return;
        }
        let Some(chan) = self.next_hop[from.0][dst.0] else {
            // Unroutable packets vanish, like a missing route in a real
            // network.
            self.arena.free(packet);
            return;
        };
        let link = self.chans[chan].link;
        if self.links[link].tap.is_some() {
            let toward_b = self.chans[chan].from == self.links[link].a;
            let packet = self.arena.take(packet);
            self.with_tap(link, |tap, ctx| tap.on_packet(ctx, packet, toward_b));
        } else {
            self.enqueue_on_chan(chan, packet);
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
        self.note_depth();
    }

    #[inline]
    fn note_depth(&mut self) {
        let depth = (self.queue.len() + self.fifo_len) as u64;
        if depth > self.queue_depth_hwm {
            self.queue_depth_hwm = depth;
        }
    }

    /// BFS shortest-path next-hop table over the undirected topology.
    fn compute_routes(&mut self) {
        let n = self.nodes.len();
        let mut adjacency: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n];
        for (ci, c) in self.chans.iter().enumerate() {
            adjacency[c.from.0].push((c.to, ci));
        }
        let mut table = vec![vec![None; n]; n];
        for dst in 0..n {
            // BFS from dst over reversed edges = shortest paths toward dst.
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut frontier = std::collections::VecDeque::new();
            frontier.push_back(dst);
            while let Some(u) = frontier.pop_front() {
                // For each node v with an edge v -> u, v can reach dst via u.
                for v in 0..n {
                    if dist[v] != usize::MAX {
                        continue;
                    }
                    let hop = adjacency[v].iter().find(|(to, _)| to.0 == u);
                    if let Some(&(_, chan)) = hop {
                        dist[v] = dist[u] + 1;
                        table[v][dst] = Some(chan);
                        frontier.push_back(v);
                    }
                }
            }
        }
        self.next_hop = table;
        self.routes_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Protocol};

    /// Echoes every received packet back to its source.
    #[derive(Clone)]
    struct Echo {
        received: Vec<Packet>,
    }
    impl Agent for Echo {
        fn boxed_clone(&self) -> Option<Box<dyn Agent>> {
            Some(Box::new(self.clone()))
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
            let reply = Packet::new(
                Addr::new(ctx.node(), packet.dst.port),
                packet.src,
                packet.protocol,
                packet.header.clone(),
                packet.payload_len,
            );
            self.received.push(packet);
            ctx.send(reply);
        }
    }

    /// Sends `count` packets at start, records replies and timer fires.
    #[derive(Clone)]
    struct Blaster {
        peer: NodeId,
        count: u32,
        size: u32,
        replies: u32,
        timer_fires: Vec<u64>,
    }
    impl Blaster {
        fn new(peer: NodeId, count: u32, size: u32) -> Blaster {
            Blaster {
                peer,
                count,
                size,
                replies: 0,
                timer_fires: Vec::new(),
            }
        }
    }
    impl Agent for Blaster {
        fn boxed_clone(&self) -> Option<Box<dyn Agent>> {
            Some(Box::new(self.clone()))
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.count {
                let pkt = Packet::new(
                    ctx.addr(1000),
                    Addr::new(self.peer, 7),
                    Protocol::Other(1),
                    Vec::new(),
                    self.size,
                );
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
            self.replies += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
            self.timer_fires.push(tag);
        }
    }

    fn two_node_sim(queue: usize) -> (Simulator, NodeId, NodeId, LinkId) {
        let mut sim = Simulator::new(7);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.set_agent(
            b,
            Echo {
                received: Vec::new(),
            },
        );
        // 8 Mbit/s = 1 byte/µs; 1 ms propagation.
        let link = sim.add_link(
            a,
            b,
            LinkSpec::new(8_000_000, SimDuration::from_millis(1), queue),
        );
        (sim, a, b, link)
    }

    /// Asserts every parked packet is held by a channel, a delivery FIFO
    /// or a pending `Deliver`/`ChanEnqueue` event: no path that drops or
    /// hands out a packet left its arena slot behind.
    fn assert_no_leaked_packets(sim: &Simulator) {
        let channels: usize = sim.chans.iter().map(|c| c.chan.occupancy()).sum();
        let events = sim
            .queue
            .pending()
            .iter()
            .filter(|ev| {
                matches!(
                    ev.kind,
                    EventKind::Deliver { .. } | EventKind::ChanEnqueue { .. }
                )
            })
            .count();
        assert_eq!(
            sim.arena.live(),
            channels + sim.fifo_len + events,
            "arena slots must match the refs still held"
        );
    }

    #[test]
    fn packet_roundtrip_timing() {
        let (mut sim, a, b, _) = two_node_sim(64);
        sim.set_agent(a, Blaster::new(b, 1, 80));
        // One-way: 100 µs serialization + 1 ms propagation = 1.1 ms;
        // round trip 2.2 ms.
        sim.run_until(SimTime::from_micros(2_199));
        assert_eq!(sim.agent::<Blaster>(a).unwrap().replies, 0);
        sim.run_until(SimTime::from_micros(2_201));
        assert_eq!(sim.agent::<Blaster>(a).unwrap().replies, 1);
        assert_eq!(sim.agent::<Echo>(b).unwrap().received.len(), 1);
    }

    #[test]
    fn queue_overflow_drops_packets() {
        // Queue of 2: burst of 10 same-size packets → 1 in flight + 2
        // queued survive per burst round, rest dropped.
        let (mut sim, a, b, link) = two_node_sim(2);
        sim.set_agent(a, Blaster::new(b, 10, 80));
        sim.run_until(SimTime::from_secs(1));
        let (ab, _) = sim.link_stats(link);
        assert_eq!(ab.dropped, 7);
        assert_eq!(ab.transmitted, 3);
        assert_eq!(sim.agent::<Echo>(b).unwrap().received.len(), 3);
        assert_no_leaked_packets(&sim);
    }

    #[test]
    fn multi_hop_routing() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let r = sim.add_node("router");
        let b = sim.add_node("b");
        sim.set_agent(a, Blaster::new(b, 1, 100));
        sim.set_agent(
            b,
            Echo {
                received: Vec::new(),
            },
        );
        let spec = LinkSpec::new(8_000_000, SimDuration::from_millis(1), 16);
        sim.add_link(a, r, spec);
        sim.add_link(r, b, spec);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Blaster>(a).unwrap().replies, 1);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Agent for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let h = ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.cancel_timer(h);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, Timers { fired: Vec::new() });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Timers>(n).unwrap().fired, vec![1, 2]);
    }

    #[test]
    fn control_actions_reach_agents() {
        let (mut sim, a, b, _) = two_node_sim(64);
        sim.set_agent(a, Blaster::new(b, 0, 0));
        sim.schedule_control(SimTime::from_millis(5), a, |agent, ctx| {
            let any: &mut dyn Any = agent;
            let blaster: &mut Blaster = any.downcast_mut().expect("blaster");
            blaster.count = 1;
            let pkt = Packet::new(
                ctx.addr(1000),
                Addr::new(blaster.peer, 7),
                Protocol::Other(1),
                Vec::new(),
                10,
            );
            ctx.send(pkt);
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Blaster>(a).unwrap().replies, 1);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |_seed: u64| {
            let (mut sim, a, b, link) = two_node_sim(2);
            sim.set_agent(a, Blaster::new(b, 10, 80));
            sim.run_until(SimTime::from_secs(1));
            let (ab, ba) = sim.link_stats(link);
            (sim.events_processed(), ab, ba)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn loopback_delivery() {
        struct SelfSend {
            got: bool,
        }
        impl Agent for SelfSend {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let pkt = Packet::new(ctx.addr(1), ctx.addr(2), Protocol::Other(1), Vec::new(), 0);
                ctx.send(pkt);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
                self.got = true;
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, SelfSend { got: false });
        sim.run_until(SimTime::from_millis(1));
        assert!(sim.agent::<SelfSend>(n).unwrap().got);
    }

    #[test]
    fn unroutable_packets_vanish() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        // No link between a and b.
        sim.set_agent(a, Blaster::new(b, 3, 10));
        sim.set_agent(
            b,
            Echo {
                received: Vec::new(),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Echo>(b).unwrap().received.len(), 0);
        assert_eq!(sim.arena.live(), 0, "unroutable sends free their slots");
        assert_no_leaked_packets(&sim);
    }

    struct DropAllTap {
        seen: u64,
    }
    impl Tap for DropAllTap {
        fn on_packet(&mut self, _ctx: &mut TapCtx<'_>, _packet: Packet, _toward_b: bool) {
            self.seen += 1;
        }
    }

    struct PassTap;
    impl Tap for PassTap {
        fn on_packet(&mut self, ctx: &mut TapCtx<'_>, packet: Packet, toward_b: bool) {
            ctx.forward(packet, toward_b);
        }
    }

    #[test]
    fn tap_can_drop_everything() {
        let (mut sim, a, b, link) = two_node_sim(64);
        sim.set_agent(a, Blaster::new(b, 5, 80));
        sim.attach_tap(link, DropAllTap { seen: 0 });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.tap::<DropAllTap>(link).unwrap().seen, 5);
        assert_eq!(sim.agent::<Echo>(b).unwrap().received.len(), 0);
    }

    #[test]
    fn passthrough_tap_is_transparent() {
        let (mut sim, a, b, link) = two_node_sim(64);
        sim.set_agent(a, Blaster::new(b, 5, 80));
        sim.attach_tap(link, PassTap);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Blaster>(a).unwrap().replies, 5);
    }

    struct InjectingTap {
        target: Addr,
        from: Addr,
    }
    impl Tap for InjectingTap {
        fn on_start(&mut self, ctx: &mut TapCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(5), 99);
        }
        fn on_packet(&mut self, ctx: &mut TapCtx<'_>, packet: Packet, toward_b: bool) {
            ctx.forward(packet, toward_b);
        }
        fn on_timer(&mut self, ctx: &mut TapCtx<'_>, tag: u64) {
            assert_eq!(tag, 99);
            let pkt = Packet::new(self.from, self.target, Protocol::Other(1), Vec::new(), 1);
            // Target is on the b side of the tapped link.
            ctx.inject(pkt, true, SimDuration::ZERO);
        }
    }

    #[test]
    fn event_budget_truncates_deterministically() {
        let run = |budget: u64| {
            let (mut sim, a, b, link) = two_node_sim(64);
            sim.set_agent(a, Blaster::new(b, 50, 80));
            sim.set_event_budget(budget);
            sim.run_until(SimTime::from_secs(1));
            let (ab, _) = sim.link_stats(link);
            (
                sim.events_processed(),
                sim.budget_exhausted(),
                ab.transmitted,
            )
        };
        let first = run(10);
        assert!(first.1, "tiny budget must exhaust");
        assert!(first.0 <= 10);
        assert_eq!(first, run(10), "truncation must be deterministic");
    }

    #[test]
    fn exhausted_budget_freezes_further_runs() {
        let (mut sim, a, b, _) = two_node_sim(64);
        sim.set_agent(a, Blaster::new(b, 50, 80));
        sim.set_event_budget(5);
        sim.run_until(SimTime::from_millis(10));
        assert!(sim.budget_exhausted());
        let processed = sim.events_processed();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.events_processed(),
            processed,
            "no events after exhaustion"
        );
        assert_eq!(sim.now(), SimTime::from_secs(1), "clock still advances");
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let run = |budget: Option<u64>| {
            let (mut sim, a, b, link) = two_node_sim(2);
            sim.set_agent(a, Blaster::new(b, 10, 80));
            if let Some(x) = budget {
                sim.set_event_budget(x);
            }
            sim.run_until(SimTime::from_secs(1));
            let (ab, ba) = sim.link_stats(link);
            (sim.events_processed(), sim.budget_exhausted(), ab, ba)
        };
        let capped = run(Some(1_000_000));
        let free = run(None);
        assert!(!capped.1);
        assert_eq!(capped, free);
    }

    #[test]
    fn tap_timer_injection() {
        let (mut sim, a, b, link) = two_node_sim(64);
        sim.set_agent(a, Blaster::new(b, 0, 0));
        sim.attach_tap(
            link,
            InjectingTap {
                target: Addr::new(b, 7),
                from: Addr::new(a, 1000),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        // Echo replies to the spoofed source; the blaster sees it.
        assert_eq!(sim.agent::<Echo>(b).unwrap().received.len(), 1);
        assert_eq!(sim.agent::<Blaster>(a).unwrap().replies, 1);
    }

    fn state_of(sim: &Simulator, a: NodeId, b: NodeId, link: LinkId) -> (u64, u32, usize, u64) {
        let (ab, _) = sim.link_stats(link);
        (
            sim.events_processed(),
            sim.agent::<Blaster>(a).unwrap().replies,
            sim.agent::<Echo>(b).unwrap().received.len(),
            ab.transmitted,
        )
    }

    #[test]
    fn fork_replays_parent_exactly() {
        let (mut sim, a, b, link) = two_node_sim(4);
        sim.set_agent(a, Blaster::new(b, 10, 80));
        sim.run_until(SimTime::from_millis(3));
        let mut child = sim.fork().expect("all agents cloneable");
        sim.run_until(SimTime::from_secs(1));
        child.run_until(SimTime::from_secs(1));
        assert_eq!(
            state_of(&sim, a, b, link),
            state_of(&child, a, b, link),
            "an untouched fork must replay its parent byte for byte"
        );
    }

    #[test]
    fn fork_does_not_perturb_parent() {
        let run = |fork_midway: bool| {
            let (mut sim, a, b, link) = two_node_sim(4);
            sim.set_agent(a, Blaster::new(b, 10, 80));
            sim.run_until(SimTime::from_millis(3));
            let child = if fork_midway { sim.fork() } else { None };
            sim.run_until(SimTime::from_secs(1));
            drop(child);
            state_of(&sim, a, b, link)
        };
        assert_eq!(run(true), run(false), "forking is invisible to the parent");
    }

    #[test]
    fn fork_preserves_pending_timers_and_cancellations() {
        struct Arm;
        impl Agent for Arm {
            fn boxed_clone(&self) -> Option<Box<dyn Agent>> {
                Some(Box::new(Arm))
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let dead = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.cancel_timer(dead);
                ctx.set_timer(SimDuration::from_millis(30), 3);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                // Visible side effect per fire: a loopback packet.
                let pkt = Packet::new(
                    ctx.addr(tag as u16),
                    ctx.addr(7),
                    Protocol::Other(1),
                    Vec::new(),
                    0,
                );
                ctx.send(pkt);
            }
        }
        let mut sim = Simulator::new(3);
        let n = sim.add_node("n");
        sim.set_agent(n, Arm);
        sim.run_until(SimTime::from_millis(5));
        let mut child = sim.fork().expect("cloneable");
        sim.run_until(SimTime::from_secs(1));
        child.run_until(SimTime::from_secs(1));
        assert_eq!(sim.events_processed(), child.events_processed());
        // Timers 1 and 3 fired (each a timer event + a delivered packet);
        // the cancelled timer 2 must fire in neither run.
        assert_eq!(sim.events_processed(), 2 + 2);
    }

    #[test]
    fn fork_refused_when_an_agent_is_not_cloneable() {
        struct Opaque;
        impl Agent for Opaque {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, Opaque);
        sim.run_until(SimTime::from_millis(1));
        assert!(sim.fork().is_none(), "default boxed_clone declines to fork");
    }

    #[test]
    fn fork_refused_when_a_tap_is_not_cloneable() {
        let (mut sim, a, b, link) = two_node_sim(4);
        sim.set_agent(a, Blaster::new(b, 1, 80));
        sim.attach_tap(link, PassTap);
        sim.run_until(SimTime::from_millis(1));
        assert!(sim.fork().is_none(), "PassTap has no boxed_clone");
    }

    struct Canceller;
    impl Agent for Canceller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..10 {
                let h = ctx.set_timer(SimDuration::from_millis(10), 0);
                ctx.cancel_timer(h);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
    }

    /// Each cancelled timer's entry stays queued until its fire time, then
    /// pops as a ghost that consumes its record, dispatches nothing and
    /// leaves nothing to purge.
    #[test]
    fn wheel_removes_cancelled_timers_natively() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, Canceller);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.queue.len(), 10, "dead entries stay queued");
        assert_eq!(
            sim.queue.cancelled_len(),
            10,
            "records live until fire time"
        );
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.queue.len(), 0);
        assert_eq!(sim.queue.cancelled_len(), 0);
        assert_eq!(sim.stats().timers_purged, 0);
        assert_eq!(sim.stats().events_processed, 0, "no dead timer dispatched");
    }

    /// The boundary of the same rule: a cancelled record outlives a run
    /// that stops one nanosecond short of its fire time and is consumed by
    /// a run whose deadline is exactly that time.
    #[test]
    fn cancelled_records_are_consumed_exactly_at_fire_time() {
        let fire = SimTime::from_millis(10);
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, Canceller);
        sim.run_until(SimTime::from_nanos(fire.as_nanos() - 1));
        assert_eq!(sim.queue.len(), 10);
        assert_eq!(
            sim.queue.cancelled_len(),
            10,
            "records live until fire time"
        );
        sim.run_until(fire);
        assert_eq!(sim.queue.len(), 0);
        assert_eq!(sim.queue.cancelled_len(), 0, "consumed at fire time");
        assert_eq!(sim.stats().timers_purged, 0);
        assert_eq!(sim.stats().events_processed, 0);
    }

    /// Arms three timers, cancels the second before it fires and the first
    /// after it fired.
    #[derive(Default)]
    struct CancelProbe {
        first: Option<TimerHandle>,
        fired: Vec<(u64, u64)>,
    }
    impl Agent for CancelProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.first = Some(ctx.set_timer(SimDuration::from_millis(10), 1));
            let second = ctx.set_timer(SimDuration::from_millis(20), 2);
            ctx.cancel_timer(second);
            ctx.set_timer(SimDuration::from_millis(30), 3);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.fired.push((tag, ctx.now().as_nanos() / 1_000_000));
            if tag == 1 {
                ctx.cancel_timer(self.first.expect("armed at start"));
            }
        }
    }

    /// The cancel contract: a cancelled timer pops as a ghost at its own
    /// key, consumes no event budget, and its record is gone once its fire
    /// time passes — consumed by the pop, or purged at the end of the run
    /// for a cancel issued after the fire.
    #[test]
    fn cancel_contract_holds() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, CancelProbe::default());
        // Two live timers fit the budget only if the ghost is free.
        sim.set_event_budget(2);
        sim.run_until(SimTime::from_millis(15));
        // Timer 1 fired and was cancelled afterwards: its record was
        // purged as the run ended. The dead timer 2 is still queued under
        // its own key (fire time, push sequence 1).
        assert_eq!(sim.stats().timers_purged, 1);
        assert_eq!(sim.queue.cancelled_len(), 1);
        assert_eq!(sim.queue.peek_key(), Some((SimTime::from_millis(20), 1)));
        let events = sim.events_processed();
        sim.run_until(SimTime::from_millis(20));
        // It popped as a ghost at its key: nothing dispatched, the record
        // consumed, timer 3 next.
        assert_eq!(sim.events_processed(), events);
        assert_eq!(sim.queue.cancelled_len(), 0);
        assert_eq!(sim.queue.peek_key(), Some((SimTime::from_millis(30), 2)));
        sim.run_until(SimTime::from_millis(40));
        assert!(!sim.budget_exhausted(), "the ghost must not spend budget");
        let probe = sim.agent::<CancelProbe>(n).unwrap();
        assert_eq!(probe.fired, vec![(1, 10), (3, 30)]);
        let stats = sim.stats();
        let counts = (
            stats.events_processed,
            stats.timers_cancelled,
            stats.timers_purged,
        );
        assert_eq!(counts, (2, 2, 1));
    }

    /// A deliberately chaotic agent exercising every scheduler-visible
    /// behaviour at once: timer churn (immediate, near, far, MAX-adjacent,
    /// cancel-then-rearm), packet bursts, and loopback traffic.
    #[derive(Clone)]
    struct Chaotic {
        peer: NodeId,
        armed: Vec<TimerHandle>,
        fired: Vec<(u64, u64)>,
        got: Vec<(u64, u64)>,
        sends_left: u32,
    }
    impl Chaotic {
        fn new(peer: NodeId) -> Chaotic {
            Chaotic {
                peer,
                armed: Vec::new(),
                fired: Vec::new(),
                got: Vec::new(),
                sends_left: 60,
            }
        }
        fn churn(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
            // Arm a spread of horizons, cancel every other previously
            // armed handle, and re-arm one at the same tag and time
            // (cancel-then-rearm through fresh handles).
            let near = ctx.set_timer(SimDuration::from_micros(50 + salt % 700), 10 + salt % 4);
            let far = ctx.set_timer(SimDuration::from_millis(40 + salt % 25), 20 + salt % 4);
            ctx.set_timer_at(SimTime::MAX, 99);
            if salt.is_multiple_of(2) {
                ctx.cancel_timer(near);
                let _rearmed =
                    ctx.set_timer(SimDuration::from_micros(50 + salt % 700), 10 + salt % 4);
            }
            if let Some(h) = self.armed.pop() {
                ctx.cancel_timer(h);
            }
            self.armed.push(far);
            if salt.is_multiple_of(3) {
                ctx.set_timer(SimDuration::ZERO, 7);
            }
        }
        fn blast(&mut self, ctx: &mut Ctx<'_>, n: u32) {
            for i in 0..n.min(self.sends_left) {
                let dst = if i % 5 == 4 { ctx.node() } else { self.peer };
                let pkt = Packet::new(
                    ctx.addr(1000),
                    Addr::new(dst, 7),
                    Protocol::Other(2),
                    vec![i as u8; 12],
                    200,
                );
                ctx.send(pkt);
            }
            self.sends_left = self.sends_left.saturating_sub(n);
        }
    }
    impl Agent for Chaotic {
        fn boxed_clone(&self) -> Option<Box<dyn Agent>> {
            Some(Box::new(self.clone()))
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.blast(ctx, 8);
            self.churn(ctx, 1);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
            self.got.push((packet.id, ctx.now().as_nanos()));
            let salt = packet.id;
            if self.got.len().is_multiple_of(2) {
                self.churn(ctx, salt);
            }
            if self.got.len().is_multiple_of(3) {
                self.blast(ctx, 2);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.fired.push((tag, ctx.now().as_nanos()));
            if self.fired.len() % 2 == 1 {
                self.blast(ctx, 1);
            }
            if self.fired.len() % 4 == 1 {
                self.churn(ctx, tag + self.fired.len() as u64);
            }
        }
    }

    /// Everything observable about a finished chaotic run, rendered.
    fn chaos_observables(sim: &Simulator, a: NodeId, b: NodeId, link: LinkId) -> String {
        let stats = sim.stats();
        let (pa, pb) = (
            sim.agent::<Chaotic>(a).unwrap(),
            sim.agent::<Chaotic>(b).unwrap(),
        );
        format!(
            "{:?}",
            (
                (stats.events_processed, sim.budget_exhausted()),
                (stats.timers_cancelled, stats.arena_alloc, stats.arena_reuse),
                (&pa.fired, &pa.got, &pb.fired, &pb.got),
                sim.link_stats(link),
            )
        )
    }

    fn chaos_sim(seed: u64, impaired: bool) -> (Simulator, NodeId, NodeId, LinkId) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.set_agent(a, Chaotic::new(b));
        sim.set_agent(b, Chaotic::new(a));
        let mut spec = LinkSpec::new(4_000_000, SimDuration::from_micros(700), 8);
        if impaired {
            // Every drop path at once: flap, loss, corruption, RED and
            // tail drop, plus duplication and reorder jitter.
            spec = spec.with_red().with_impairment(crate::impair::Impairment {
                loss_ppm: 60_000,
                corrupt_ppm: 30_000,
                dup_ppm: 40_000,
                reorder_ppm: 150_000,
                jitter: SimDuration::from_micros(900),
                flap: Some(crate::impair::FlapSpec {
                    first_down: SimTime::from_millis(5),
                    down_for: SimDuration::from_millis(2),
                    period: SimDuration::from_millis(25),
                }),
            });
        }
        let link = sim.add_link(a, b, spec);
        (sim, a, b, link)
    }

    /// Runs to `deadline`, then checks the run contract and the arena.
    /// Without a budget trip nothing due by the deadline is left pending,
    /// in the queue or a delivery FIFO; with one, the budget was spent
    /// exactly.
    fn run_checked(sim: &mut Simulator, deadline: SimTime) {
        sim.run_until(deadline);
        if sim.budget_exhausted() {
            assert_eq!(Some(sim.events_processed()), sim.event_budget);
        } else {
            let queued = sim.queue.pending().into_iter().map(|ev| ev.at);
            let parked = sim.chans.iter().flat_map(|c| c.fifo.iter().map(|e| e.at));
            let due = queued.chain(parked).filter(|&at| at <= deadline).min();
            assert_eq!(due, None, "an entry due by {deadline:?} outlived the run");
        }
        assert_no_leaked_packets(sim);
    }

    /// FNV-1a over every chaotic run's observables, recorded while a
    /// reference binary-heap scheduler still reproduced them run for run.
    const CHAOS_DIGEST: u64 = 0xf28c_89d1_931a_87f5;

    /// Chaotic timer and traffic schedules — staged deadlines, mid-run
    /// forks, impaired and clean links, tight budgets — over 12 seeds:
    /// every `run_until` keeps the run contract and leaks no packet, a
    /// fork replays its parent, and the 48 runs' observables, arena totals
    /// included, hash to [`CHAOS_DIGEST`]. Debug builds also check the
    /// dispatch order of every event on the way.
    #[test]
    fn chaos_runs_keep_the_run_contract_and_their_digest() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut reused = 0;
        for seed in 0..12u64 {
            for impaired in [false, true] {
                for budget in [None, Some(150u64)] {
                    let (mut sim, a, b, link) = chaos_sim(seed, impaired);
                    if let Some(x) = budget {
                        sim.set_event_budget(x);
                    }
                    // Staged deadlines force scheduler maintenance (purges,
                    // wheel advances) between runs.
                    run_checked(&mut sim, SimTime::from_micros(300));
                    run_checked(&mut sim, SimTime::from_millis(7));
                    let mut fork = sim.fork().expect("chaotic agents clone");
                    run_checked(&mut sim, SimTime::from_millis(90));
                    run_checked(&mut fork, SimTime::from_millis(90));
                    let parent = chaos_observables(&sim, a, b, link);
                    let forked = chaos_observables(&fork, a, b, link);
                    assert_eq!(parent, forked, "fork must replay its parent");
                    digest = parent.bytes().fold(digest, |h, byte| {
                        (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
                    });
                    reused += sim.stats().arena_reuse;
                }
            }
        }
        assert!(reused > 0, "steady traffic must recycle arena slots");
        assert_eq!(digest, CHAOS_DIGEST, "chaotic runs moved: {digest:#018x}");
    }

    /// Arena alloc/reuse totals of one clean chaotic run, recorded while a
    /// reference binary-heap scheduler still parked and took packets at
    /// the same points.
    #[test]
    fn arena_counters_hold_their_recorded_totals() {
        let (mut sim, _a, _b, _link) = chaos_sim(3, false);
        sim.run_until(SimTime::from_millis(60));
        let totals = (sim.stats().arena_alloc, sim.stats().arena_reuse);
        assert_eq!(totals, (21, 99), "arena alloc/reuse moved");
    }

    #[test]
    fn timer_exactly_at_now_fires_within_the_run() {
        struct AtNow {
            fired_at: Option<u64>,
        }
        impl Agent for AtNow {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::ZERO, 1);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                assert_eq!(tag, 1);
                self.fired_at = Some(ctx.now().as_nanos());
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, AtNow { fired_at: None });
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.agent::<AtNow>(n).unwrap().fired_at, Some(0));
    }

    #[test]
    fn max_adjacent_timers_park_without_firing() {
        struct Never {
            fired: u32,
        }
        impl Agent for Never {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // "Never" sentinels at and next to the top of the time
                // domain: they must park in the wheel's highest level and
                // stay there, not overflow or fire early.
                ctx.set_timer_at(SimTime::MAX, 1);
                ctx.set_timer_at(SimTime::from_nanos(u64::MAX - 1), 2);
                let dead = ctx.set_timer_at(SimTime::MAX, 3);
                ctx.cancel_timer(dead);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {
                self.fired += 1;
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, Never { fired: 0 });
        sim.run_until(SimTime::from_secs(3600));
        assert_eq!(sim.agent::<Never>(n).unwrap().fired, 0);
        // Running all the way to the end of time dispatches the two live
        // sentinels (the cancelled one stays dead).
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.agent::<Never>(n).unwrap().fired, 2);
    }

    #[test]
    fn cancel_then_rearm_same_tag_and_time() {
        struct Rearm {
            fired: Vec<u64>,
        }
        impl Agent for Rearm {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let first = ctx.set_timer(SimDuration::from_millis(10), 5);
                ctx.cancel_timer(first);
                // Re-arm at the identical tag and fire time: exactly one
                // fire must result, from the fresh handle.
                ctx.set_timer(SimDuration::from_millis(10), 5);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        sim.set_agent(n, Rearm { fired: Vec::new() });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent::<Rearm>(n).unwrap().fired, vec![5]);
    }

    #[test]
    fn fork_mid_cascade_replays_parent() {
        struct Spread;
        impl Agent for Spread {
            fn boxed_clone(&self) -> Option<Box<dyn Agent>> {
                Some(Box::new(Spread))
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Timers across every wheel level: sub-tick to hours.
                for i in 0..24u64 {
                    ctx.set_timer(SimDuration::from_nanos(1u64 << (2 * i + 2)), i);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                let pkt = Packet::new(
                    ctx.addr(tag as u16),
                    ctx.addr(7),
                    Protocol::Other(1),
                    Vec::new(),
                    0,
                );
                ctx.send(pkt);
            }
        }
        let mut sim = Simulator::new(9);
        let n = sim.add_node("n");
        sim.set_agent(n, Spread);
        // Stop mid-way: the wheel has advanced through several cascades
        // and still holds far-future levels.
        sim.run_until(SimTime::from_millis(40));
        let mut fork = sim.fork().expect("cloneable");
        sim.run_until(SimTime::from_secs(200));
        fork.run_until(SimTime::from_secs(200));
        assert_eq!(sim.events_processed(), fork.events_processed());
        // Timers with i <= 17 (delay 2^36 ns ~ 69 s) fire within 200 s,
        // each followed by a loopback delivery; i >= 18 stays parked.
        assert_eq!(sim.events_processed(), 18 * 2);
    }

    #[test]
    fn depth_hwm_tracks_queue_and_fifo() {
        let (mut sim, a, b, _) = two_node_sim(64);
        sim.set_agent(a, Blaster::new(b, 20, 80));
        assert_eq!(sim.stats().queue_depth_hwm, 0);
        sim.run_until(SimTime::from_secs(1));
        let hwm = sim.stats().queue_depth_hwm;
        assert!(hwm >= 20, "burst of 20 must register, got {hwm}");
    }
}
