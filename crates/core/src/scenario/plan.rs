//! Snapshot-forked execution: the baseline's trigger timeline, the
//! snapshot plan built from it, and the memoization proofs that read both.

use std::sync::{Arc, OnceLock};

use snake_json::ToJson;
use snake_netsim::{SimTime, Simulator};
use snake_observe::{self as observe, Observer};
use snake_packet::{FieldMutation, FormatSpec};
use snake_proxy::{
    AttackProxy, BasicAttack, DccpAdapter, ProtocolAdapter, StateTimeline, Strategy, StrategyKind,
    TcpAdapter,
};

use super::run::{record_sim_stats, run_full, Measured, Session, Wiring};
use super::{ProtocolKind, ScenarioSpec, TestMetrics};

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

pub(super) struct SnapshotPlan {
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
    pub(super) baseline: TestMetrics,
    /// Pass 1's trigger timeline: what `decide` and the memo proofs read
    /// (empty when forking is off, since nothing reads it then).
    pub(super) timeline: StateTimeline,
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
        let decision = self
            .plan()
            .map(|plan| (plan, decide(&self.timeline, &rules)));
        let fork = match decision {
            Some((_, ForkDecision::Elide)) => {
                obs.counter_add("exec.runs.elided", 1);
                let info = RunInfo {
                    elided: true,
                    forked: false,
                };
                return (self.baseline.clone(), info);
            }
            Some((plan, ForkDecision::ForkAt(t))) => plan
                .latest_before(t)
                .and_then(|snap| snap.sim.fork().map(|sim| (plan, snap, sim))),
            Some((_, ForkDecision::FromScratch)) | None => None,
        };
        // No plan, a rule that cannot fork, no snapshot before the trigger,
        // or an agent that turned out not to be forkable: run it all.
        let Some((plan, snap, sim)) = fork else {
            obs.counter_add("exec.runs.from_scratch", 1);
            return (run_full(&self.spec, rules, obs), RunInfo::default());
        };
        obs.counter_add("exec.runs.forked", 1);
        obs.counter_add("netsim.forks", 1);
        if obs.enabled() {
            obs.counter_add("netsim.fork_clone_bytes", snap.sim.approx_clone_bytes());
        }
        let info = RunInfo {
            elided: false,
            forked: true,
        };
        (self.resume(plan, snap, sim, rules), info)
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
pub(super) fn build_plan(
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
