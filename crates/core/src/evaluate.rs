//! Evaluating one strategy: the shared read-only context, the memoization
//! shortcuts that answer a strategy without a run, and the run itself
//! wrapped in its panic boundary and watchdog.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

use snake_observe as observe;
use snake_proxy::{InjectionAttack, Strategy, StrategyKind};

use crate::config::{CampaignConfig, CampaignError};
use crate::detect::{baseline_valid, detect_enveloped, Envelope, Verdict};
use crate::result::{Memo, OutcomeKind, StrategyOutcome};
use crate::scenario::{Executor, ExecutorOptions, PlannedExecutor, ScenarioSpec, TestMetrics};
use crate::strategen::{is_on_path, is_self_denial};

/// Deterministic seed for ensemble member `k` (member 0 is the scenario
/// seed itself). The golden-ratio multiply diffuses `k` across the word so
/// member seeds never collide with each other or with the re-test seed.
pub(crate) fn ensemble_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds the detection envelope: the campaign's own baseline plus
/// `reps − 1` plain from-scratch no-attack runs at jittered seeds.
fn build_envelope(
    spec: &ScenarioSpec,
    baseline: &TestMetrics,
    reps: usize,
    threshold: f64,
) -> Envelope {
    if reps <= 1 {
        return Envelope::from_baseline(baseline, threshold);
    }
    let mut members = Vec::with_capacity(reps);
    members.push(baseline.clone());
    for k in 1..reps {
        let member_spec = ScenarioSpec {
            seed: ensemble_seed(spec.seed, k),
            ..spec.clone()
        };
        members.push(Executor::run(&member_spec, None));
    }
    Envelope::from_members(&members, threshold)
}

/// Everything the executor workers share read-only: the planned (snapshot
/// holding) executors for the main and re-test seeds, plus the config.
///
/// Only the main executor's baseline exists once [`prepare`] returns. Its
/// snapshot plan, and the whole re-test executor with its envelope, are
/// built on first need — [`ensure_plans`] builds them together, ahead of
/// the first strategy that is not answered from a journal.
///
/// [`prepare`]: SharedCtx::prepare
/// [`ensure_plans`]: SharedCtx::ensure_plans
pub(crate) struct SharedCtx {
    pub(crate) exec: PlannedExecutor,
    /// The re-test seed's executor and its detection envelope, built on
    /// first need; read through [`SharedCtx::retest`].
    retest: OnceLock<(PlannedExecutor, Envelope)>,
    pub(crate) config: CampaignConfig,
    /// Whether campaign-level memoization is live (config switch and no
    /// fault hook or chaos plan; each executor additionally requires its
    /// determinism guard to have passed).
    pub(crate) memoize: bool,
    /// Detection envelope for the main seed (single-baseline degenerate
    /// when `baseline_reps == 1`).
    pub(crate) envelope: Envelope,
    /// Borderline verdicts escalated to a confirmatory re-test.
    pub(crate) escalated: AtomicUsize,
    /// Watchdog deadline expiries (every attempt counts).
    pub(crate) stalls: AtomicUsize,
    /// Strategies quarantined after the stall retry budget.
    pub(crate) quarantined: AtomicUsize,
}

pub(crate) type Shared = Arc<SharedCtx>;

/// Joins a start-up thread; one that panicked is re-raised here with the
/// payload — and so the message — it died with.
pub(crate) fn join_scoped<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The options every executor of a campaign is built with.
fn executor_options(config: &CampaignConfig, memoize: bool) -> ExecutorOptions {
    ExecutorOptions {
        snapshot_fork: config.snapshot_fork,
        memoize,
        observer: config.observer.clone(),
    }
}

impl SharedCtx {
    /// Stands up what every evaluation of a campaign shares, on the
    /// controller and in a shard worker alike: the main seed's baseline
    /// and its detection envelope. Snapshot plans and the re-test executor
    /// wait for [`ensure_plans`](SharedCtx::ensure_plans) or their first
    /// use. `memoize` is the effective switch (the controller forces it
    /// off under fault injection, so it can differ from `config.memoize`).
    pub(crate) fn prepare(
        config: CampaignConfig,
        memoize: bool,
    ) -> Result<SharedCtx, CampaignError> {
        let spec = &config.scenario;
        let observer = config.observer.as_ref();
        let exec = PlannedExecutor::new(spec, executor_options(&config, memoize));
        if !baseline_valid(exec.baseline()) {
            return Err(CampaignError::InvalidBaseline {
                implementation: spec.protocol.implementation_name().to_owned(),
            });
        }

        // Detection envelopes. With `baseline_reps == 1` the envelope is
        // the single baseline and `detect_enveloped` degenerates to the
        // legacy `detect` — bit-identical verdicts. With reps ≥ 2, K−1
        // extra seed-jittered no-attack runs widen the band by the noise
        // the scenario (impairments included) actually exhibits.
        let envelope = {
            let _span = observe::span(observer, "phase.ensemble", 0);
            build_envelope(
                spec,
                exec.baseline(),
                config.baseline_reps,
                config.threshold,
            )
        };
        if observer.enabled() {
            observer.counter_add("detect.envelope.members", envelope.members as u64);
            observer.counter_add(
                "detect.envelope.target_lo",
                envelope.target_lo.max(0.0) as u64,
            );
            observer.counter_add(
                "detect.envelope.target_hi",
                envelope.target_hi.max(0.0) as u64,
            );
            observer.counter_add(
                "detect.envelope.width_permille",
                (envelope.target_width_fraction() * 1000.0) as u64,
            );
        }
        Ok(SharedCtx {
            exec,
            retest: OnceLock::new(),
            memoize,
            envelope,
            escalated: AtomicUsize::new(0),
            stalls: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            config,
        })
    }

    /// The re-test executor and its envelope (`None` when re-testing is
    /// off), built by the first caller. The repeatability re-test compares
    /// a different-seed attack run against the matching different-seed
    /// baseline.
    pub(crate) fn retest(&self) -> Option<&(PlannedExecutor, Envelope)> {
        let config = &self.config;
        config.retest.then(|| {
            self.retest.get_or_init(|| {
                let spec = ScenarioSpec {
                    seed: config.scenario.seed.wrapping_add(1),
                    ..config.scenario.clone()
                };
                let exec = PlannedExecutor::new(&spec, executor_options(config, self.memoize));
                let envelope = {
                    let _span = observe::span(config.observer.as_ref(), "phase.ensemble", 0);
                    build_envelope(
                        &spec,
                        exec.baseline(),
                        config.baseline_reps,
                        config.threshold,
                    )
                };
                (exec, envelope)
            })
        })
    }

    /// Builds everything evaluation needs beyond [`prepare`]: the main
    /// snapshot plan and, when re-testing is on, the re-test executor with
    /// its envelope and plan. The two share nothing, so they are built side
    /// by side — the re-test on a thread of its own, the main plan on this
    /// one — and a panic in either is re-raised here with its own payload.
    /// Callers stand outside the evaluation panic boundary, so a failing
    /// build fails the campaign instead of erroring every strategy. Cheap
    /// once built.
    ///
    /// [`prepare`]: SharedCtx::prepare
    pub(crate) fn ensure_plans(&self) {
        std::thread::scope(|scope| {
            let retest = scope.spawn(|| self.retest().map(|(exec, _)| exec.plan_active()));
            self.exec.plan_active();
            join_scoped(retest);
        });
    }
}

/// Answers a statically provable wire no-op with the baseline outcome —
/// exactly what [`evaluate`] would produce, without running anything.
/// Returns `None` when the strategy is not provably inert, or when the
/// baseline compared against itself would flag (a degenerate scenario; the
/// ordinary path then runs the strategy for real, keeping memoized and
/// unmemoized campaigns bit-identical).
pub(crate) fn inert_outcome(shared: &Shared, strategy: &Strategy) -> Option<StrategyOutcome> {
    if !shared.memoize || !shared.exec.provably_inert(strategy) {
        return None;
    }
    let baseline = shared.exec.baseline();
    if baseline.truncated {
        return Some(StrategyOutcome {
            on_path: is_on_path(strategy),
            strategy: strategy.clone(),
            verdict: Verdict::default(),
            metrics: baseline.clone(),
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Truncated,
            error: None,
            memo: Some(Memo::Inert),
        });
    }
    let verdict = detect_enveloped(&shared.envelope, baseline);
    if verdict.flagged() {
        return None;
    }
    Some(StrategyOutcome {
        on_path: is_on_path(strategy) || is_self_denial(strategy, &verdict),
        strategy: strategy.clone(),
        verdict,
        metrics: baseline.clone(),
        repeatable: true,
        false_positive: false,
        outcome_kind: OutcomeKind::Ok,
        error: None,
        memo: Some(Memo::Inert),
    })
}

/// Memo-class key covering every run [`evaluate`] might make for a
/// strategy: the main-seed class key joined with the re-test seed's when
/// re-testing is on. Strategies sharing the composite key are
/// trigger-equivalent under every executor involved, so their evaluations
/// are identical end to end — including the inert-volume control run,
/// whose trigger has the same first-visibility instant as the member's.
pub(crate) fn class_key(shared: &Shared, strategy: &Strategy) -> Option<String> {
    if !shared.memoize {
        return None;
    }
    let main = shared.exec.class_key(strategy)?;
    match shared.retest() {
        None => Some(main),
        Some((retest, _)) => {
            let rk = retest.class_key(strategy)?;
            Some(format!("{main}|{rk}"))
        }
    }
}

/// Copies a class representative's outcome onto a trigger-equivalent
/// member. The run results are identical by construction; only the
/// strategy identity and the strategy-derived on-path classification are
/// recomputed (class members can sit on different endpoint/state pairs).
pub(crate) fn materialize_class_member(
    rep: &StrategyOutcome,
    strategy: Strategy,
) -> StrategyOutcome {
    let on_path = match rep.outcome_kind {
        OutcomeKind::Ok => is_on_path(&strategy) || is_self_denial(&strategy, &rep.verdict),
        _ => is_on_path(&strategy),
    };
    StrategyOutcome {
        on_path,
        strategy,
        verdict: rep.verdict,
        metrics: rep.metrics.clone(),
        repeatable: rep.repeatable,
        false_positive: rep.false_positive,
        outcome_kind: rep.outcome_kind,
        error: None,
        memo: Some(Memo::Class),
    }
}

/// Executes one strategy end to end: attack run, verdict, repeatability
/// re-test, and (for flagged hitseqwindow strategies) the inert-volume
/// false-positive control.
fn evaluate(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let SharedCtx { exec, config, .. } = &**shared;
    let metrics = exec.run(Some(strategy.clone()));
    if metrics.truncated {
        // A budget-truncated run transferred less data because it ran for
        // less virtual time; comparing it against a full-length baseline
        // would manufacture degradation verdicts. Report it as truncated
        // and skip the re-test and control runs.
        return StrategyOutcome {
            on_path: is_on_path(&strategy),
            strategy,
            verdict: Verdict::default(),
            metrics,
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Truncated,
            error: None,
            memo: None,
        };
    }
    let verdict = detect_enveloped(&shared.envelope, &metrics);

    // Flagged verdicts re-test as always; with an ensemble (reps > 1),
    // *borderline* results — within BORDERLINE_MARGIN of an envelope edge,
    // on either side — are escalated to the same different-seed re-test
    // instead of trusting a single draw of the noise. A borderline flag
    // must repeat to survive; a borderline near-miss gets a confirmatory
    // run (counted, never promoted to a flag, so the ensemble's zero-FP
    // guarantee is preserved).
    let mut repeatable = true;
    let borderline = shared.config.baseline_reps > 1 && shared.envelope.is_borderline(&metrics);
    if verdict.flagged() || borderline {
        if let Some((retest, retest_env)) = shared.retest() {
            if borderline {
                shared.escalated.fetch_add(1, Ordering::Relaxed);
                config.observer.counter_add("campaign.escalated", 1);
            }
            let _span = observe::span(config.observer.as_ref(), "phase.retests", 0);
            let again = retest.run(Some(strategy.clone()));
            let again_flagged = !again.truncated && detect_enveloped(retest_env, &again).flagged();
            if verdict.flagged() {
                repeatable = again_flagged;
            }
        }
    }

    let mut false_positive = false;
    if verdict.flagged() && repeatable {
        if let StrategyKind::OnState {
            endpoint,
            state,
            attack:
                InjectionAttack::HitSeqWindow {
                    packet_type,
                    direction,
                    stride,
                    count,
                    rate_pps,
                    inert: false,
                },
        } = &strategy.kind
        {
            // Control run: identical volume aimed at a dead port. If the
            // impact persists, it came from the packet volume, not from
            // hitting the sequence window.
            let control = Strategy {
                id: strategy.id,
                kind: StrategyKind::OnState {
                    endpoint: *endpoint,
                    state: state.clone(),
                    attack: InjectionAttack::HitSeqWindow {
                        packet_type: packet_type.clone(),
                        direction: *direction,
                        stride: *stride,
                        count: *count,
                        rate_pps: *rate_pps,
                        inert: true,
                    },
                },
            };
            let control_metrics = exec.run(Some(control));
            let control_verdict = detect_enveloped(&shared.envelope, &control_metrics);
            false_positive = !control_metrics.truncated && control_verdict.flagged();
        }
    }

    StrategyOutcome {
        on_path: is_on_path(&strategy) || is_self_denial(&strategy, &verdict),
        strategy,
        verdict,
        metrics,
        repeatable,
        false_positive,
        outcome_kind: OutcomeKind::Ok,
        error: None,
        memo: None,
    }
}

/// Wraps [`evaluate`] in a panic boundary: a crashing engine run becomes an
/// [`OutcomeKind::Errored`] outcome carrying the panic message, instead of
/// unwinding through the batch and losing every other result.
fn evaluate_guarded(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(hook) = &shared.config.fault_hook {
            hook(&strategy);
        }
        if let Some(chaos) = &shared.config.chaos {
            chaos.apply(&strategy);
        }
        evaluate(shared, strategy.clone())
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => StrategyOutcome {
            on_path: is_on_path(&strategy),
            strategy,
            verdict: Verdict::default(),
            metrics: TestMetrics::empty(),
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Errored,
            error: Some(panic_message(payload.as_ref())),
            memo: None,
        },
    }
}

/// Wraps [`evaluate_guarded`] in the per-run watchdog when a deadline is
/// configured: the evaluation runs on its own thread, and if no outcome
/// arrives within the wall-clock deadline the attempt is abandoned and
/// retried with doubling backoff. Once the retry budget is spent the
/// strategy is quarantined as [`OutcomeKind::Stalled`] — the campaign
/// moves on instead of hanging on one livelocked engine.
///
/// Abandoned threads are detached, never killed: they hold only `Arc`
/// clones, their late results are dropped on a closed channel, and the
/// journal append happens in the watchdog's caller, so a straggler can
/// never write anything.
pub(crate) fn evaluate_watched(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let Some(deadline) = shared.config.deadline else {
        return evaluate_guarded(shared, strategy);
    };
    let observer = shared.config.observer.clone();
    let retries = shared.config.stall_retries;
    let mut backoff = shared.config.stall_backoff;
    for attempt in 0..=retries {
        let (tx, rx) = mpsc::channel();
        let worker_shared = Arc::clone(shared);
        let worker_strategy = strategy.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("snake-eval-{}", strategy.id))
            .spawn(move || {
                let _ = tx.send(evaluate_guarded(&worker_shared, worker_strategy));
            });
        if spawned.is_err() {
            // Thread exhaustion: fall back to an unwatched inline run
            // rather than failing the strategy for a host-side problem.
            return evaluate_guarded(shared, strategy);
        }
        match rx.recv_timeout(deadline) {
            Ok(outcome) => return outcome,
            Err(_) => {
                shared.stalls.fetch_add(1, Ordering::Relaxed);
                observer.counter_add("campaign.stalls", 1);
                if attempt < retries {
                    observer.counter_add("campaign.stall_retries", 1);
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }
    shared.quarantined.fetch_add(1, Ordering::Relaxed);
    observer.counter_add("campaign.quarantined", 1);
    StrategyOutcome {
        on_path: is_on_path(&strategy),
        error: Some(format!(
            "stalled: no outcome within {deadline:?} in any of {} attempts; quarantined",
            retries + 1
        )),
        strategy,
        verdict: Verdict::default(),
        metrics: TestMetrics::empty(),
        repeatable: false,
        false_positive: false,
        outcome_kind: OutcomeKind::Stalled,
        memo: None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ProtocolKind;
    use snake_tcp::Profile;

    #[test]
    fn a_panicking_start_up_thread_is_re_raised_with_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                join_scoped(scope.spawn(|| panic!("plan builder fault")));
            })
        });
        let payload = caught.expect_err("the panic must cross the join");
        assert_eq!(panic_message(payload.as_ref()), "plan builder fault");
    }

    #[test]
    fn plans_built_side_by_side_equal_plans_built_in_turn() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let recorder = Arc::new(snake_observe::Recorder::new());
        let config = CampaignConfig::builder(spec.clone())
            .retest(true)
            .observer(recorder.clone())
            .build()
            .expect("valid config");
        // The standalone executors report elsewhere, so the span counts
        // below are the shared context's alone.
        let options = ExecutorOptions {
            observer: observe::noop(),
            ..executor_options(&config, true)
        };
        let shared = SharedCtx::prepare(config, true).expect("valid baseline");
        let spans = |name: &str| {
            recorder
                .snapshot()
                .span_totals()
                .get(name)
                .map_or(0, |t| t.0)
        };
        assert_eq!(
            spans("phase.baseline"),
            1,
            "prepare runs the main baseline only"
        );
        assert_eq!(spans("phase.snapshotting"), 0);
        shared.ensure_plans();
        assert_eq!(spans("phase.baseline"), 2);
        assert_eq!(spans("phase.snapshotting"), 2);
        let (retest, _) = shared.retest().expect("re-testing is on");

        let main_alone = PlannedExecutor::new(&spec, options.clone());
        let retest_spec = spec.clone().with_seed(spec.seed().wrapping_add(1));
        let retest_alone = PlannedExecutor::new(&retest_spec, options);
        assert_eq!(shared.exec.baseline(), main_alone.baseline());
        assert_eq!(shared.exec.snapshot_count(), main_alone.snapshot_count());
        assert_eq!(retest.baseline(), retest_alone.baseline());
        assert_eq!(retest.snapshot_count(), retest_alone.snapshot_count());
        assert_ne!(
            shared.exec.baseline(),
            retest.baseline(),
            "the two seeds are different runs, so a swap would show"
        );
        assert!(main_alone.snapshot_count() > 0);
        assert_eq!(
            spans("phase.snapshotting"),
            2,
            "forced plans are not rebuilt"
        );

        let strategies = crate::strategen::generate_strategies(
            spec.protocol(),
            &[shared.exec.baseline().proxy.as_ref()],
            &crate::strategen::GenerationParams::default(),
            &mut 0,
            &mut std::collections::BTreeSet::new(),
        );
        let step = strategies.len() / 20;
        for s in strategies.iter().step_by(step).take(20) {
            let run = |exec: &PlannedExecutor| exec.run_with_info(Some(s.clone()));
            assert_eq!(run(&shared.exec), run(&main_alone), "{s:?}");
            assert_eq!(run(retest), run(&retest_alone), "{s:?}");
            assert_eq!(shared.exec.class_key(s), main_alone.class_key(s), "{s:?}");
        }
    }
}
