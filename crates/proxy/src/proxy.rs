use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snake_netsim::{Addr, FxHashMap, NodeId, Packet, SimDuration, SimTime, Tap, TapCtx};
use snake_packet::FormatSpec;
use snake_statemachine::{Dir, Label, PairTracker};

use crate::adapter::{swap_endpoints, InjectContext, ProtocolAdapter};
use crate::strategy::{
    BasicAttack, Endpoint, InjectDirection, InjectionAttack, Strategy, StrategyKind,
};

const TAG_BATCH: u64 = 1;
/// Injection timer tags are `TAG_INJECT_BASE + rule index`, so several
/// concurrent injection rules (combination strategies) keep separate
/// schedules.
const TAG_INJECT_BASE: u64 = 16;

/// Where the proxy sits and what the (off-path) attacker is assumed to
/// know: the service address and a guess at the client's ephemeral port —
/// information the paper's attacker model grants (§III-C), but never the
/// connection's sequence state.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// The proxied client's node.
    pub client_node: NodeId,
    /// Whether the client is the `a` side of the tapped link.
    pub client_is_a: bool,
    /// The target service address.
    pub server: Addr,
    /// Guessed client ephemeral port (used until real traffic is seen).
    pub client_port_guess: u16,
    /// RNG seed for probabilistic attacks.
    pub seed: u64,
}

/// One `(endpoint, state, packet type, direction)` observation count from
/// a run's state trackers — the feedback strategy generation reads.
///
/// Every field is `Copy`, so an observation holds no heap memory. Ordered
/// as the journal spells it: by endpoint, state and packet-type text, then
/// direction text (`"recv"` before `"send"`, whatever order [`Dir`]
/// declares), then count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The tracked endpoint.
    pub endpoint: Endpoint,
    /// The endpoint's state when the packets were observed.
    pub state: Label,
    /// The packets' type.
    pub packet_type: Label,
    /// Whether the endpoint sent or received the packets.
    pub dir: Dir,
    /// How many packets.
    pub count: u64,
}

impl Observation {
    /// Everything but the count, in sort order.
    fn key(&self) -> (Endpoint, Label, Label, &'static str) {
        (
            self.endpoint,
            self.state,
            self.packet_type,
            self.dir.as_str(),
        )
    }
}

impl Ord for Observation {
    fn cmp(&self, other: &Observation) -> std::cmp::Ordering {
        self.key()
            .cmp(&other.key())
            .then(self.count.cmp(&other.count))
    }
}

impl PartialOrd for Observation {
    fn partial_cmp(&self, other: &Observation) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Counters and state observations the executor extracts after a test and
/// ships to the controller (paper §V-C).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxyReport {
    /// Target-protocol packets that crossed the proxy.
    pub packets_seen: u64,
    /// Packets matched by the active strategy.
    pub matched: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Duplicate copies emitted.
    pub duplicates: u64,
    /// Packets delayed.
    pub delayed: u64,
    /// Packets batched.
    pub batched: u64,
    /// Packets reflected.
    pub reflected: u64,
    /// Packets with a mutated field.
    pub lied: u64,
    /// Packets injected.
    pub injected: u64,
    /// Effective hits per rule, as sparse `(rule index, count)` pairs
    /// sorted by index. A rule is credited once per wire effect it causes
    /// — the same discipline as `matched`/`injected`, so a run whose rules
    /// never touch the wire keeps an empty vector, bit-identical to the
    /// baseline's (the inert memo layer substitutes the baseline report
    /// for provably effect-free runs). The campaign manifest aggregates
    /// these into per-`(state, packet type)` histograms.
    pub rule_hits: Vec<(u32, u64)>,
    /// Observation counts summed over every tracked connection, sorted.
    pub observed: Vec<Observation>,
    /// Final tracked client state.
    pub client_final_state: Label,
    /// Final tracked server state.
    pub server_final_state: Label,
}

/// Hashes the counters and the two list lengths and skips the contents of
/// both lists. Equal reports agree on all of them, which is all `Hash`
/// owes the derived `Eq`, and little is lost in spread: the 190, 164 and
/// 262 distinct reports of the quick TCP, DCCP and `star:64` journals
/// hash to 184, 160 and 253 values (seed 7), so interning a resumed
/// journal's reports compares few of them in full and needs no hash over
/// every observation label.
impl std::hash::Hash for ProxyReport {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        [
            self.packets_seen,
            self.matched,
            self.dropped,
            self.duplicates,
            self.delayed,
            self.batched,
            self.reflected,
            self.lied,
            self.injected,
            self.rule_hits.len() as u64,
            self.observed.len() as u64,
        ]
        .hash(state);
    }
}

/// First-occurrence times of trigger-visible observations in a baseline
/// (no-attack) run, recorded when [`AttackProxy::record_timeline`] is on.
///
/// The snapshot-fork executor uses this to place forks: a strategy's
/// trigger cannot activate before the first time its key appears here, so
/// forking the baseline snapshot strictly before that time yields a run
/// identical to executing the strategy from scratch.
#[derive(Debug, Clone, Default)]
pub struct StateTimeline {
    /// First visibility of each `(endpoint, state)` pair to the `OnState`
    /// trigger check (which runs after every observed packet).
    pub states: FxHashMap<(Endpoint, Label), StateFirstSeen>,
    /// Per `(sender endpoint, sender pre-transition state, packet type)`
    /// triple: first sighting by the `OnPacket` match, plus which header
    /// fields held the same value in every packet seen under the triple.
    pub packets: FxHashMap<(Endpoint, Label, Label), PacketFirstSeen>,
}

impl StateTimeline {
    /// First sighting of a `(sender, state, packet type)` triple, by name.
    /// Names are looked up, never admitted: one the vocabulary does not
    /// know cannot have been recorded.
    pub fn packet_seen(
        &self,
        sender: Endpoint,
        state: &str,
        packet_type: &str,
    ) -> Option<&PacketFirstSeen> {
        let key = (sender, Label::lookup(state)?, Label::lookup(packet_type)?);
        self.packets.get(&key)
    }

    /// First visibility of an `(endpoint, state)` pair, by name (looked
    /// up, never admitted).
    pub fn state_seen(&self, endpoint: Endpoint, state: &str) -> Option<&StateFirstSeen> {
        self.states.get(&(endpoint, Label::lookup(state)?))
    }

    /// Records one packet of `key`'s triple, seen at `now` as the proxy's
    /// `index`-th packet, whose header is `header`. Allocates only the
    /// first time a triple is seen.
    pub fn record_packet(
        &mut self,
        key: (Endpoint, Label, Label),
        now: SimTime,
        index: u64,
        spec: &FormatSpec,
        header: &[u8],
    ) {
        self.packets
            .entry(key)
            .or_insert_with(|| PacketFirstSeen {
                first_at: now,
                first_index: index,
                fields: Vec::new(),
            })
            .update_constancy(spec, header);
    }

    /// Records that `key`'s endpoint was visible in its state at `now`,
    /// after the proxy's `index`-th packet. Allocates only the first time
    /// a pair is seen.
    pub fn record_state(&mut self, key: (Endpoint, Label), now: SimTime, index: u64) {
        self.states.entry(key).or_insert(StateFirstSeen {
            first_at: now,
            first_index: index,
        });
    }
}

/// When an `(endpoint, state)` pair first became trigger-visible in the
/// baseline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateFirstSeen {
    /// Simulated time of first visibility.
    pub first_at: SimTime,
    /// `packets_seen` count at that moment (disambiguates distinct packets
    /// observed at the same nanosecond).
    pub first_index: u64,
}

/// Baseline observations for one `(sender, pre-transition state, packet
/// type)` triple: first sighting, plus per-field value constancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketFirstSeen {
    /// Simulated time the triple was first seen.
    pub first_at: SimTime,
    /// `packets_seen` count at that moment.
    pub first_index: u64,
    /// For each field of the protocol's header spec (by field index):
    /// `Some(v)` if every packet seen under this triple carried value `v`
    /// in that field, `None` if it varied or could not be read. A lie whose
    /// mutation provably writes the constant value back is a wire no-op on
    /// every packet it could match, so the planner elides the run.
    pub fields: Vec<Option<u64>>,
}

impl PacketFirstSeen {
    /// Folds one packet's field values into the constancy vector.
    fn update_constancy(&mut self, spec: &FormatSpec, header: &[u8]) {
        let n = spec.fields().len();
        if self.fields.is_empty() {
            self.fields.reserve(n);
            for i in 0..n {
                let v = spec.field_at(i).and_then(|(_, r)| spec.get(header, r).ok());
                self.fields.push(v);
            }
            return;
        }
        for i in 0..n {
            let v = spec.field_at(i).and_then(|(_, r)| spec.get(header, r).ok());
            if self.fields[i] != v {
                self.fields[i] = None;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct InjectionRun {
    packet_type: String,
    direction: InjectDirection,
    next_seq: u64,
    stride: u64,
    remaining: u64,
    per_tick: u64,
    tick: SimDuration,
    inert: bool,
}

/// The attack proxy: a [`Tap`] that tracks protocol state from observed
/// packets and applies the active [`Strategy`] (or several at once — the
/// *combination strategies* the paper leaves as future work).
#[derive(Debug)]
pub struct AttackProxy {
    adapter: Box<dyn ProtocolAdapter>,
    /// The adapter's header spec, fetched once per proxy: `adapter.spec()`
    /// bumps a refcount every worker thread shares, too costly per packet.
    spec: Arc<FormatSpec>,
    config: ProxyConfig,
    rules: Vec<Strategy>,
    /// One tracker per connection (keyed by the client-side transport
    /// address pair): concurrent connections through the proxy are tracked
    /// independently, so multi-connection exhaustion scenarios key
    /// strategies correctly per connection.
    trackers: Vec<((Addr, Addr), PairTracker)>,
    by_conn: FxHashMap<(Addr, Addr), usize>,
    rng: SmallRng,
    observed_client: Option<Addr>,
    observed_server: Option<Addr>,
    packets_from_client: u64,
    packets_from_server: u64,
    batch: Vec<(Packet, bool)>,
    batch_armed: bool,
    /// Per-rule injection state (index-aligned with `rules`).
    started: Vec<bool>,
    injections: Vec<Option<InjectionRun>>,
    /// Baseline trigger timeline, recorded only when enabled.
    timeline: Option<StateTimeline>,
    report: ProxyReport,
}

impl Clone for AttackProxy {
    fn clone(&self) -> AttackProxy {
        AttackProxy {
            adapter: self.adapter.clone_adapter(),
            spec: Arc::clone(&self.spec),
            config: self.config,
            rules: self.rules.clone(),
            trackers: self.trackers.clone(),
            by_conn: self.by_conn.clone(),
            rng: self.rng.clone(),
            observed_client: self.observed_client,
            observed_server: self.observed_server,
            packets_from_client: self.packets_from_client,
            packets_from_server: self.packets_from_server,
            batch: self.batch.clone(),
            batch_armed: self.batch_armed,
            started: self.started.clone(),
            injections: self.injections.clone(),
            timeline: self.timeline.clone(),
            report: self.report.clone(),
        }
    }
}

impl AttackProxy {
    /// Creates a proxy for one test run. Pass `None` as the strategy for
    /// the baseline (observation-only) run.
    pub fn new<A: ProtocolAdapter>(
        adapter: A,
        config: ProxyConfig,
        strategy: Option<Strategy>,
    ) -> AttackProxy {
        AttackProxy::with_rules(adapter, config, strategy.into_iter().collect())
    }

    /// Creates a proxy applying several strategies in the same run — a
    /// combination strategy. `OnPacket` rules are matched in order (first
    /// match wins per packet); every `OnState` rule launches its own
    /// injection when its trigger state is reached.
    pub fn with_rules<A: ProtocolAdapter>(
        adapter: A,
        config: ProxyConfig,
        rules: Vec<Strategy>,
    ) -> AttackProxy {
        let n = rules.len();
        AttackProxy {
            spec: adapter.spec(),
            adapter: Box::new(adapter),
            config,
            rules,
            trackers: Vec::new(),
            by_conn: FxHashMap::default(),
            rng: SmallRng::seed_from_u64(config.seed),
            observed_client: None,
            observed_server: None,
            packets_from_client: 0,
            packets_from_server: 0,
            batch: Vec::new(),
            batch_armed: false,
            started: vec![false; n],
            injections: (0..n).map(|_| None).collect(),
            timeline: None,
            report: ProxyReport::default(),
        }
    }

    /// Replaces the active rule set, resetting per-rule trigger state while
    /// keeping every observation (trackers, counters, report) intact.
    ///
    /// This is how the snapshot-fork executor arms a strategy inside a
    /// forked baseline: the fork already carries the prefix's observations,
    /// and the new rules start matching from the next packet on. It does
    /// *not* re-run [`Tap::on_start`], so `AtTime` rules (armed by a timer
    /// at simulation start) must not be installed this way — the executor
    /// runs those from scratch.
    pub fn install_rules(&mut self, rules: Vec<Strategy>) {
        let n = rules.len();
        self.rules = rules;
        self.started = vec![false; n];
        self.injections = (0..n).map(|_| None).collect();
        // Hit indices refer to the rule set that earned them; a new rule
        // set starts from a clean slate (the baseline prefix a fork carries
        // had no rules, so this is a no-op for the snapshot-fork path).
        self.report.rule_hits.clear();
    }

    /// Enables baseline trigger-timeline recording (off by default; costs
    /// a hash lookup per packet, so only observation runs turn it on).
    pub fn record_timeline(&mut self) {
        self.timeline = Some(StateTimeline::default());
    }

    /// The recorded baseline trigger timeline, if recording was enabled.
    pub fn timeline(&self) -> Option<&StateTimeline> {
        self.timeline.as_ref()
    }

    /// The report accumulated so far (final after the run ends).
    pub fn report(&self) -> &ProxyReport {
        &self.report
    }

    /// The state tracker of the first observed connection (for tests and
    /// diagnostics of single-connection scenarios).
    pub fn tracker(&self) -> &PairTracker {
        &self.trackers.first().expect("no connection observed yet").1
    }

    /// Number of distinct connections the proxy has tracked.
    pub fn connections_tracked(&self) -> usize {
        self.trackers.len()
    }

    /// Gets or creates the tracker for a connection, returning its index.
    fn tracker_index(&mut self, key: (Addr, Addr)) -> usize {
        if let Some(&i) = self.by_conn.get(&key) {
            return i;
        }
        let tracker = PairTracker::new(
            self.adapter.machine(),
            self.adapter.client_initial(),
            self.adapter.server_initial(),
        )
        .expect("adapter initial states exist in its machine");
        let i = self.trackers.len();
        self.trackers.push((key, tracker));
        self.by_conn.insert(key, i);
        i
    }

    fn client_addr(&self) -> Addr {
        self.observed_client.unwrap_or(Addr::new(
            self.config.client_node,
            self.config.client_port_guess,
        ))
    }

    fn server_addr(&self) -> Addr {
        self.observed_server.unwrap_or(self.config.server)
    }

    /// Maps an injection direction onto the tapped link's orientation.
    fn toward_b(&self, direction: InjectDirection) -> bool {
        match direction {
            InjectDirection::ToServer => self.config.client_is_a,
            InjectDirection::ToClient => !self.config.client_is_a,
        }
    }

    fn seq_value(&mut self, choice: crate::strategy::SeqChoice) -> u64 {
        let mask = if self.adapter.seq_bits() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.adapter.seq_bits()) - 1
        };
        match choice {
            crate::strategy::SeqChoice::Zero => 0,
            crate::strategy::SeqChoice::Max => mask,
            crate::strategy::SeqChoice::Random => self.rng.gen::<u64>() & mask,
        }
    }

    /// Starts any not-yet-started injection rule whose trigger endpoint is
    /// now in its trigger state. Runs after every observed packet, so the
    /// non-triggering pass must not allocate or clone.
    fn maybe_trigger_injection(&mut self, ctx: &mut TapCtx<'_>) {
        for i in 0..self.rules.len() {
            if self.started[i] {
                continue;
            }
            let StrategyKind::OnState {
                endpoint, state, ..
            } = &self.rules[i].kind
            else {
                continue;
            };
            let endpoint = *endpoint;
            let in_state = self.trackers.iter().any(|(_, t)| {
                let current = match endpoint {
                    Endpoint::Client => t.client().current_name(),
                    Endpoint::Server => t.server().current_name(),
                };
                current == state.as_str()
            });
            if !in_state {
                continue;
            }
            let attack = match &self.rules[i].kind {
                StrategyKind::OnState { attack, .. } => attack.clone(),
                _ => unreachable!(),
            };
            self.started[i] = true;
            self.injections[i] = Some(self.make_run(attack));
            self.injection_tick(i, ctx);
        }
    }

    /// Builds the paced run for an injection attack.
    fn make_run(&mut self, attack: InjectionAttack) -> InjectionRun {
        match attack {
            InjectionAttack::Inject {
                packet_type,
                seq,
                direction,
                repeat,
            } => {
                let seq0 = self.seq_value(seq);
                InjectionRun {
                    packet_type,
                    direction,
                    next_seq: seq0,
                    stride: 0,
                    remaining: repeat.max(1) as u64,
                    per_tick: 1,
                    tick: SimDuration::from_millis(10),
                    inert: false,
                }
            }
            InjectionAttack::HitSeqWindow {
                packet_type,
                direction,
                stride,
                count,
                rate_pps,
                inert,
            } => InjectionRun {
                packet_type,
                direction,
                next_seq: 0,
                stride,
                remaining: count,
                per_tick: (rate_pps / 100).max(1),
                tick: SimDuration::from_millis(10),
                inert,
            },
        }
    }

    /// Emits one tick's worth of packets for injection rule `i` and
    /// reschedules it.
    fn injection_tick(&mut self, i: usize, ctx: &mut TapCtx<'_>) {
        let rule_index = i;
        let Some(mut run) = self.injections[i].take() else {
            return;
        };
        let burst = run.per_tick.min(run.remaining);
        let mask = if self.adapter.seq_bits() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.adapter.seq_bits()) - 1
        };
        for i in 0..burst {
            let (src, dst) = match run.direction {
                InjectDirection::ToServer => (self.client_addr(), self.server_addr()),
                InjectDirection::ToClient => (self.server_addr(), self.client_addr()),
            };
            let mut dst = dst;
            if run.inert {
                // The false-positive check: identical volume and pacing,
                // but aimed at a dead port so no connection can react.
                dst.port = dst.port.wrapping_add(7_777);
            }
            let ictx = InjectContext {
                src,
                dst,
                seq: run.next_seq,
            };
            if let Some(pkt) = self.adapter.build_inject(&run.packet_type, ictx) {
                let toward_b = self.toward_b(run.direction);
                // Spread the burst inside the tick to avoid a single
                // line-rate spike.
                let spread = SimDuration::from_micros(i * 100);
                ctx.inject(pkt, toward_b, spread);
                self.report.injected += 1;
                self.bump_rule_hit(rule_index);
            }
            run.next_seq = (run.next_seq.wrapping_add(run.stride.max(1))) & mask;
            run.remaining -= 1;
        }
        if run.remaining > 0 {
            ctx.set_timer(run.tick, TAG_INJECT_BASE + i as u64);
            self.injections[i] = Some(run);
        }
    }

    /// Credits rule `ri` with one effective (wire-visible) hit.
    fn bump_rule_hit(&mut self, ri: usize) {
        let ri = ri as u32;
        match self.report.rule_hits.binary_search_by_key(&ri, |e| e.0) {
            Ok(pos) => self.report.rule_hits[pos].1 += 1,
            Err(pos) => self.report.rule_hits.insert(pos, (ri, 1)),
        }
    }

    /// Counts one matched packet against rule `ri`.
    fn count_match(&mut self, ri: usize) {
        self.report.matched += 1;
        self.bump_rule_hit(ri);
    }

    fn apply_basic(
        &mut self,
        ctx: &mut TapCtx<'_>,
        ri: usize,
        attack: &BasicAttack,
        mut packet: Packet,
        toward_b: bool,
    ) {
        match attack {
            BasicAttack::Drop { percent } => {
                self.count_match(ri);
                if self.rng.gen_range(0u32..100) < *percent as u32 {
                    self.report.dropped += 1;
                } else {
                    ctx.forward(packet, toward_b);
                }
            }
            BasicAttack::Duplicate { copies } => {
                self.count_match(ri);
                for _ in 0..*copies {
                    ctx.forward(packet.clone(), toward_b);
                    self.report.duplicates += 1;
                }
                ctx.forward(packet, toward_b);
            }
            BasicAttack::Delay { secs } => {
                self.count_match(ri);
                self.report.delayed += 1;
                ctx.forward_delayed(packet, toward_b, SimDuration::from_secs_f64(*secs));
            }
            BasicAttack::Batch { secs } => {
                self.count_match(ri);
                self.report.batched += 1;
                self.batch.push((packet, toward_b));
                if !self.batch_armed {
                    self.batch_armed = true;
                    ctx.set_timer(SimDuration::from_secs_f64(*secs), TAG_BATCH);
                }
            }
            BasicAttack::Reflect => {
                self.count_match(ri);
                self.report.reflected += 1;
                swap_endpoints(&self.spec, &mut packet);
                ctx.send_back(packet, toward_b);
            }
            BasicAttack::Lie { field, mutation } => {
                // A lie that leaves the header byte-identical — the mutation
                // wrote the value the field already held, the header failed
                // to parse, or the mutation was out of range — is a wire
                // no-op: forward the original bytes untouched and count
                // nothing, so an all-no-op run's report stays bit-identical
                // to the baseline's.
                let original = packet.header.clone();
                let mut changed = false;
                match self
                    .spec
                    .parse(std::mem::take(&mut packet.header).into_vec())
                {
                    Ok(mut header) => {
                        if mutation.apply(&mut header, field, &mut self.rng).is_ok() {
                            let bytes = header.into_bytes();
                            changed = bytes[..] != original[..];
                            packet.header = bytes.into();
                        } else {
                            packet.header = original;
                        }
                    }
                    Err(_) => packet.header = original,
                }
                if changed {
                    self.count_match(ri);
                    self.report.lied += 1;
                }
                ctx.forward(packet, toward_b);
            }
        }
    }
}

impl Tap for AttackProxy {
    fn boxed_clone(&self) -> Option<Box<dyn snake_netsim::Tap>> {
        Some(Box::new(self.clone()))
    }

    fn on_start(&mut self, ctx: &mut TapCtx<'_>) {
        // Time-interval baseline rules are armed against the wall clock.
        for (i, rule) in self.rules.iter().enumerate() {
            if let StrategyKind::AtTime { at_secs, .. } = &rule.kind {
                ctx.set_timer(
                    SimDuration::from_secs_f64(*at_secs),
                    TAG_INJECT_BASE + i as u64,
                );
            }
        }
        // Strategies keyed to an initial state (CLOSED / LISTEN) trigger
        // before any packet flows.
        self.maybe_trigger_injection(ctx);
    }

    fn on_packet(&mut self, ctx: &mut TapCtx<'_>, packet: Packet, toward_b: bool) {
        if packet.protocol != self.adapter.protocol() {
            // "Protocols not of interest are returned ... for normal
            // processing" (§V-B).
            ctx.forward(packet, toward_b);
            return;
        }
        let Some(ptype) = self.adapter.classify(&packet.header, packet.payload_len) else {
            ctx.forward(packet, toward_b);
            return;
        };
        self.report.packets_seen += 1;

        let from_client = toward_b == self.config.client_is_a;
        if from_client {
            self.observed_client = Some(packet.src);
            self.observed_server = Some(packet.dst);
            self.packets_from_client += 1;
        } else {
            self.observed_client = Some(packet.dst);
            self.observed_server = Some(packet.src);
            self.packets_from_server += 1;
        }
        let sender_count = if from_client {
            self.packets_from_client
        } else {
            self.packets_from_server
        };

        // The strategy keys on the *sender's* state at the moment the
        // packet was sent — i.e. before this packet's own transition —
        // tracked per connection.
        let key = if from_client {
            (packet.src, packet.dst)
        } else {
            (packet.dst, packet.src)
        };
        let idx = self.tracker_index(key);
        let sender = if from_client {
            Endpoint::Client
        } else {
            Endpoint::Server
        };
        // Rule matching is pure, so it runs against the sender's state
        // before the observe step; the match yields the rule's index, not a
        // clone of its attack.
        let matched = {
            let tracker = &self.trackers[idx].1;
            let sender_state = match sender {
                Endpoint::Client => tracker.client().current_label(),
                Endpoint::Server => tracker.server().current_label(),
            };
            if let Some(tl) = self.timeline.as_mut() {
                tl.record_packet(
                    (sender, sender_state, ptype),
                    ctx.now(),
                    self.report.packets_seen,
                    &self.spec,
                    &packet.header,
                );
            }
            self.rules.iter().position(|rule| match &rule.kind {
                StrategyKind::OnPacket {
                    endpoint,
                    state,
                    packet_type,
                    ..
                } => *endpoint == sender && sender_state == **state && ptype == **packet_type,
                StrategyKind::OnNthPacket { endpoint, n, .. } => {
                    *endpoint == sender && *n == sender_count
                }
                _ => false,
            })
        };
        self.trackers[idx]
            .1
            .observe_packet_label(from_client, ptype, ctx.now().as_nanos());
        self.maybe_trigger_injection(ctx);
        if let Some(tl) = self.timeline.as_mut() {
            // The OnState trigger check sees post-transition states; record
            // first visibility for both endpoints of this connection.
            let tracker = &self.trackers[idx].1;
            let now = ctx.now();
            let index = self.report.packets_seen;
            for (endpoint, t) in [
                (Endpoint::Client, tracker.client()),
                (Endpoint::Server, tracker.server()),
            ] {
                tl.record_state((endpoint, t.current_label()), now, index);
            }
        }
        match matched {
            Some(ri) => {
                // Move the rule set aside to borrow the matched attack
                // across the `&mut self` call — no per-packet clone of the
                // rule or its attack (`apply_basic` never touches rules).
                let rules = std::mem::take(&mut self.rules);
                match &rules[ri].kind {
                    StrategyKind::OnPacket { attack, .. }
                    | StrategyKind::OnNthPacket { attack, .. } => {
                        self.apply_basic(ctx, ri, attack, packet, toward_b);
                    }
                    _ => unreachable!("matcher only yields packet-triggered rules"),
                }
                self.rules = rules;
            }
            None => ctx.forward(packet, toward_b),
        }
    }

    fn on_timer(&mut self, ctx: &mut TapCtx<'_>, tag: u64) {
        match tag {
            TAG_BATCH => {
                self.batch_armed = false;
                for (pkt, toward_b) in std::mem::take(&mut self.batch) {
                    ctx.forward(pkt, toward_b);
                }
            }
            t if t >= TAG_INJECT_BASE => {
                let i = (t - TAG_INJECT_BASE) as usize;
                if !self.started[i] {
                    // Move the rule set aside instead of cloning the whole
                    // strategy; only the injection attack itself is cloned
                    // (once per rule, when it first arms).
                    let rules = std::mem::take(&mut self.rules);
                    if let Some(Strategy {
                        kind: StrategyKind::AtTime { attack, .. },
                        ..
                    }) = rules.get(i)
                    {
                        self.started[i] = true;
                        self.injections[i] = Some(self.make_run(attack.clone()));
                    }
                    self.rules = rules;
                }
                self.injection_tick(i, ctx)
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, now: SimTime) {
        // Aggregate observations across every tracked connection: sort,
        // then sum the counts of entries that differ only in count.
        for (_, tracker) in &mut self.trackers {
            tracker.finish(now.as_nanos());
        }
        let observed = &mut self.report.observed;
        observed.clear();
        for (_, tracker) in &self.trackers {
            for (endpoint, t) in [
                (Endpoint::Client, tracker.client()),
                (Endpoint::Server, tracker.server()),
            ] {
                observed.extend(t.observed_pairs().into_iter().map(
                    |(state, packet_type, dir, count)| Observation {
                        endpoint,
                        state,
                        packet_type,
                        dir,
                        count,
                    },
                ));
            }
        }
        observed.sort_unstable();
        observed.dedup_by(|later, kept| {
            let same = later.key() == kept.key();
            if same {
                kept.count += later.count;
            }
            same
        });
        if let Some((_, tracker)) = self.trackers.first() {
            self.report.client_final_state = tracker.client().current_label();
            self.report.server_final_state = tracker.server().current_label();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::TcpAdapter;
    use crate::strategy::SeqChoice;
    use snake_netsim::{Dumbbell, DumbbellSpec, Simulator};
    use snake_tcp::{Profile, ServerApp, TcpHost};

    fn config(d: &Dumbbell) -> ProxyConfig {
        ProxyConfig {
            client_node: d.client1,
            client_is_a: true,
            server: Addr::new(d.server1, 80),
            client_port_guess: 40_000,
            seed: 99,
        }
    }

    fn tcp_download(strategy: Option<Strategy>, secs: u64) -> (Simulator, Dumbbell) {
        let mut sim = Simulator::new(5);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        let mut s1 = TcpHost::new(Profile::linux_3_13());
        s1.listen(80, ServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server1, s1);
        let mut c1 = TcpHost::new(Profile::linux_3_13());
        c1.connect_at(SimTime::ZERO, Addr::new(d.server1, 80));
        sim.set_agent(d.client1, c1);
        let proxy = AttackProxy::new(TcpAdapter, config(&d), strategy);
        sim.attach_tap(d.proxy_link, proxy);
        sim.run_until(SimTime::from_secs(secs));
        (sim, d)
    }

    #[test]
    fn baseline_proxy_is_transparent_and_tracks() {
        let (sim, d) = tcp_download(None, 5);
        let delivered = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        assert!(
            delivered > 2_000_000,
            "proxy must not impede traffic: {delivered}"
        );
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert_eq!(proxy.tracker().client().current_name(), "ESTABLISHED");
        assert_eq!(proxy.tracker().server().current_name(), "ESTABLISHED");
        assert!(proxy.report().packets_seen > 1_000);
        assert_eq!(proxy.report().matched, 0);
    }

    #[test]
    fn report_contains_observed_pairs_after_finish() {
        let (sim, d) = tcp_download(None, 3);
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        let report = proxy.report();
        assert!(report
            .observed
            .iter()
            .any(|o| o.endpoint == Endpoint::Client
                && o.state == "CLOSED"
                && o.packet_type == "SYN"
                && o.dir == Dir::Send));
        assert!(report
            .observed
            .iter()
            .any(|o| o.endpoint == Endpoint::Server
                && o.state == "ESTABLISHED"
                && o.packet_type == "DATA"
                && o.count > 100));
        assert_eq!(report.client_final_state, "ESTABLISHED");
    }

    #[test]
    fn drop_strategy_blocks_handshake() {
        // The server sends its SYN+ACK (and every retransmission of it)
        // while tracked in SYN_RECEIVED; dropping there prevents
        // connection establishment entirely. Note that dropping SYNs in
        // CLOSED would only delay the handshake — the client's
        // retransmissions happen in SYN_SENT — which is exactly the
        // semantic deduplication state-keyed strategies buy.
        let strategy = Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Server,
                state: "SYN_RECEIVED".into(),
                packet_type: "SYN+ACK".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 5);
        let delivered = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        assert_eq!(delivered, 0, "no data without a handshake");
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert!(proxy.report().dropped >= 1);
    }

    #[test]
    fn strategy_only_matches_its_state_and_type() {
        // Dropping DATA in SYN_SENT matches nothing: the server never
        // sends data while the client is tracked in SYN_SENT.
        let strategy = Strategy {
            id: 2,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Server,
                state: "LISTEN".into(),
                packet_type: "DATA".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 5);
        let delivered = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        assert!(delivered > 2_000_000);
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert_eq!(proxy.report().matched, 0);
    }

    #[test]
    fn reflect_syn_causes_simultaneous_open() {
        // The paper's reflect example: answering the client's SYN with its
        // own SYN drives the client into SYN_RECEIVED (simultaneous open)
        // and the connection never transfers data.
        let strategy = Strategy {
            id: 3,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "CLOSED".into(),
                packet_type: "SYN".into(),
                attack: BasicAttack::Reflect,
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 5);
        let delivered = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        assert_eq!(delivered, 0);
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert!(proxy.report().reflected >= 1);
    }

    #[test]
    fn lie_on_window_field_stalls_transfer() {
        // Zeroing the client's advertised window is a flow-control attack:
        // the server can never send.
        let strategy = Strategy {
            id: 4,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Lie {
                    field: "window".into(),
                    mutation: snake_packet::FieldMutation::Min,
                },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 10);
        let baseline = {
            let (sim_b, d_b) = tcp_download(None, 10);
            sim_b
                .agent::<TcpHost>(d_b.client1)
                .unwrap()
                .total_delivered()
        };
        let attacked = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        assert!(
            (attacked as f64) < baseline as f64 * 0.5,
            "zero-window lie must throttle: {attacked} vs baseline {baseline}"
        );
    }

    #[test]
    fn hitseqwindow_rst_kills_connection() {
        // The brute-force Reset attack: RSTs at window-sized strides
        // across the whole 32-bit space; one must land in-window.
        let strategy = Strategy {
            id: 5,
            kind: StrategyKind::OnState {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                attack: InjectionAttack::HitSeqWindow {
                    packet_type: "RST".into(),
                    direction: InjectDirection::ToClient,
                    stride: 65_535,
                    count: 65_537,
                    rate_pps: 20_000,
                    inert: false,
                },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 15);
        let metrics = sim.agent::<TcpHost>(d.client1).unwrap().conn_metrics();
        assert_eq!(
            metrics[0].state,
            snake_tcp::State::Closed,
            "a sequence-valid RST must reset the connection"
        );
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert!(proxy.report().injected > 1_000);
    }

    #[test]
    fn inert_hitseqwindow_does_not_reset() {
        let strategy = Strategy {
            id: 6,
            kind: StrategyKind::OnState {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                attack: InjectionAttack::HitSeqWindow {
                    packet_type: "RST".into(),
                    direction: InjectDirection::ToClient,
                    stride: 65_535,
                    count: 65_537,
                    rate_pps: 20_000,
                    inert: true,
                },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 15);
        let metrics = sim.agent::<TcpHost>(d.client1).unwrap().conn_metrics();
        assert_eq!(
            metrics[0].state,
            snake_tcp::State::Established,
            "inert volume has no effect"
        );
    }

    #[test]
    fn single_random_inject_rarely_lands() {
        let strategy = Strategy {
            id: 7,
            kind: StrategyKind::OnState {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                attack: InjectionAttack::Inject {
                    packet_type: "RST".into(),
                    seq: SeqChoice::Random,
                    direction: InjectDirection::ToClient,
                    repeat: 3,
                },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 5);
        let metrics = sim.agent::<TcpHost>(d.client1).unwrap().conn_metrics();
        // 3 random 32-bit guesses against a 64 KiB window: ~0.005% odds.
        assert_eq!(metrics[0].state, snake_tcp::State::Established);
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert_eq!(proxy.report().injected, 3);
    }

    #[test]
    fn duplicate_strategy_emits_copies() {
        let strategy = Strategy {
            id: 8,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Duplicate { copies: 2 },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 5);
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert!(proxy.report().duplicates > 100);
        assert_eq!(proxy.report().duplicates, proxy.report().matched * 2);
    }

    #[test]
    fn nth_packet_baseline_attacks_exactly_one_packet() {
        // The send-packet-based injection model (§IV-B): attack only the
        // 5th packet the client sends (its handshake-final ACK or an early
        // data ack) — one match, regardless of state.
        let strategy = Strategy {
            id: 20,
            kind: StrategyKind::OnNthPacket {
                endpoint: Endpoint::Client,
                n: 5,
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 5);
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert_eq!(proxy.report().matched, 1, "exactly one packet matched");
        assert_eq!(proxy.report().dropped, 1);
        // A single dropped ack does not hurt a healthy connection.
        let delivered = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        assert!(delivered > 1_000_000);
    }

    #[test]
    fn at_time_baseline_injects_at_offset() {
        // The time-interval-based injection model (§IV-B): a blind RST at
        // t = 2 s. A random 32-bit sequence guess virtually never lands.
        let strategy = Strategy {
            id: 21,
            kind: StrategyKind::AtTime {
                at_secs: 2.0,
                attack: InjectionAttack::Inject {
                    packet_type: "RST".into(),
                    seq: SeqChoice::Random,
                    direction: InjectDirection::ToClient,
                    repeat: 3,
                },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 5);
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert_eq!(proxy.report().injected, 3);
        let metrics = sim.agent::<TcpHost>(d.client1).unwrap().conn_metrics();
        assert_eq!(metrics[0].state, snake_tcp::State::Established);
    }

    #[test]
    fn combination_rules_apply_independently() {
        // Two OnPacket rules active at once: duplicate client acks AND
        // drop the server's PSH+ACK segments.
        let rules = vec![
            Strategy {
                id: 30,
                kind: StrategyKind::OnPacket {
                    endpoint: Endpoint::Client,
                    state: "ESTABLISHED".into(),
                    packet_type: "ACK".into(),
                    attack: BasicAttack::Duplicate { copies: 1 },
                },
            },
            Strategy {
                id: 31,
                kind: StrategyKind::OnPacket {
                    endpoint: Endpoint::Server,
                    state: "ESTABLISHED".into(),
                    packet_type: "PSH+ACK".into(),
                    attack: BasicAttack::Drop { percent: 100 },
                },
            },
        ];
        let mut sim = Simulator::new(5);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        let mut s1 = TcpHost::new(Profile::linux_3_13());
        s1.listen(80, ServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server1, s1);
        let mut c1 = TcpHost::new(Profile::linux_3_13());
        c1.connect_at(SimTime::ZERO, Addr::new(d.server1, 80));
        sim.set_agent(d.client1, c1);
        sim.attach_tap(
            d.proxy_link,
            AttackProxy::with_rules(TcpAdapter, config(&d), rules),
        );
        sim.run_until(SimTime::from_secs(5));
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert!(proxy.report().duplicates > 0, "rule 1 acted");
        assert!(proxy.report().dropped > 0, "rule 2 acted");
    }

    #[test]
    fn concurrent_connections_are_tracked_independently() {
        // Two overlapping downloads through the proxy: each gets its own
        // tracker, and both end tracked in ESTABLISHED.
        let mut sim = Simulator::new(5);
        let d = Dumbbell::build(&mut sim, DumbbellSpec::evaluation_default());
        let mut s1 = TcpHost::new(Profile::linux_3_13());
        s1.listen(80, ServerApp::bulk_sender(u64::MAX));
        sim.set_agent(d.server1, s1);
        let mut c1 = TcpHost::new(Profile::linux_3_13());
        c1.connect_at(SimTime::ZERO, Addr::new(d.server1, 80));
        c1.connect_at(SimTime::from_millis(500), Addr::new(d.server1, 80));
        sim.set_agent(d.client1, c1);
        sim.attach_tap(d.proxy_link, AttackProxy::new(TcpAdapter, config(&d), None));
        sim.run_until(SimTime::from_secs(5));
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert_eq!(proxy.connections_tracked(), 2);
        assert_eq!(proxy.tracker().client().current_name(), "ESTABLISHED");
        // Both connections transferred data.
        let metrics = sim.agent::<TcpHost>(d.client1).unwrap().conn_metrics();
        assert_eq!(metrics.len(), 2);
        assert!(metrics.iter().all(|m| m.delivered > 100_000));
    }

    #[test]
    fn batch_strategy_preserves_packets() {
        let strategy = Strategy {
            id: 9,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Server,
                state: "ESTABLISHED".into(),
                packet_type: "DATA".into(),
                attack: BasicAttack::Batch { secs: 0.5 },
            },
        };
        let (sim, d) = tcp_download(Some(strategy), 10);
        let delivered = sim.agent::<TcpHost>(d.client1).unwrap().total_delivered();
        assert!(delivered > 0, "batched packets are released, not lost");
        let proxy = sim.tap::<AttackProxy>(d.proxy_link).unwrap();
        assert!(proxy.report().batched > 0);
    }
}
