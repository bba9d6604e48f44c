//! The five campaign workloads and the primitives both run modes share:
//! building a workload's campaign configuration, timing one campaign, the
//! set-up measurement, and the correctness helpers (outcome digest,
//! failure count, named-attack count).
//!
//! Every workload is a closed loop in one process with `parallelism(2)`
//! pinned, so numbers compare across machines with at least two cores.
//! The seed reaches the program only as the scenario seed (and, in the
//! per-layer run, as the sampler seed).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use snake_core::{
    generate_strategies, Campaign, CampaignConfig, CampaignResult, ExecutorOptions, FlowGroup,
    FlowRole, GenerationParams, PlannedExecutor, ProtocolKind, Recorder, ScenarioSpec,
    TopologyKind,
};
use snake_dccp::DccpProfile;
use snake_proxy::Strategy;
use snake_tcp::Profile;

use crate::trace::Tracer;

/// Worker threads every workload runs with — pinned, never
/// `available_parallelism`.
pub const PARALLELISM: usize = 2;
/// Strategy cap of the untimed warm-up campaign (and of every smoke run).
pub const WARMUP_CAP: usize = 40;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uncapped TCP dumbbell campaign, fork + memo + retest on.
    TcpFull,
    /// Same scenario, 500 strategies, every shortcut off.
    TcpScratch,
    /// Uncapped DCCP dumbbell campaign.
    DccpFull,
    /// Uncapped TCP campaign on a 64-host star with a four-role flow mix.
    Star64Full,
    /// 600 TCP strategies across two worker processes.
    TcpShard2Resume,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::TcpFull,
        Workload::TcpScratch,
        Workload::DccpFull,
        Workload::Star64Full,
        Workload::TcpShard2Resume,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpFull => "tcp_full",
            Workload::TcpScratch => "tcp_scratch",
            Workload::DccpFull => "dccp_full",
            Workload::Star64Full => "star64_full",
            Workload::TcpShard2Resume => "tcp_shard2_resume",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario every strategy of this workload runs in: quick-length
    /// phases, Linux 3.13 profiles, seeded by the benchmark's `--seed`.
    pub fn scenario(self, seed: u64) -> ScenarioSpec {
        let builder = match self {
            Workload::DccpFull => {
                ScenarioSpec::builder(ProtocolKind::Dccp(DccpProfile::linux_3_13())).quick()
            }
            Workload::Star64Full => ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
                .data_secs(2)
                .grace_secs(6)
                .topology(TopologyKind::Star, 64)
                .flows(
                    [
                        (FlowRole::Attacked, 16),
                        (FlowRole::Bulk, 8),
                        (FlowRole::RequestResponse, 8),
                        (FlowRole::SynPressure, 8),
                    ]
                    .into_iter()
                    .map(|(role, count)| FlowGroup { role, count })
                    .collect(),
                ),
            _ => ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13())).quick(),
        };
        builder
            .seed(seed)
            .build()
            .expect("workload scenario is valid")
    }

    /// Strategy cap (`None` = the whole campaign).
    pub fn cap(self) -> Option<usize> {
        match self {
            Workload::TcpScratch => Some(500),
            Workload::TcpShard2Resume => Some(600),
            _ => None,
        }
    }

    /// Whether snapshot fork, memoization and re-tests are on. Only
    /// `tcp_scratch` turns them off, so that every strategy is one full
    /// simulation.
    pub fn shortcuts(self) -> bool {
        self != Workload::TcpScratch
    }

    /// Worker processes (0 = in-process threads).
    pub fn shards(self) -> usize {
        match self {
            Workload::TcpShard2Resume => 2,
            _ => 0,
        }
    }

    /// The executor options `Campaign::run` derives from this workload's
    /// configuration — what the set-up measurement and the strategy sample
    /// construct their executors with.
    pub fn executor_options(self) -> ExecutorOptions {
        ExecutorOptions {
            snapshot_fork: self.shortcuts(),
            memoize: self.shortcuts(),
            ..ExecutorOptions::default()
        }
    }
}

/// How much work a run does. The command line always uses [`Sizing::full`];
/// the smoke test shrinks everything through [`Sizing::smoke`].
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Replaces the workload's own cap when set.
    pub cap: Option<usize>,
    /// Whether an untimed [`WARMUP_CAP`]-strategy campaign runs first.
    pub warmup: bool,
    /// Seconds of timed campaign reps to aim for.
    pub seconds: f64,
    /// Timed reps to run at the very least.
    pub min_reps: usize,
    /// Set-up measurements to take at the very least (the reported figure
    /// is their median).
    pub setup_samples: usize,
    /// Seconds to keep taking set-up measurements for: a 10 ms set-up
    /// needs many more samples than a 40 ms one to read steadily.
    pub setup_seconds: f64,
    /// Timed `resume(true)` passes over the finished journal.
    pub resume_passes: usize,
    /// Strategies in the per-layer strategy sample.
    pub sample: usize,
    /// Batches per microbenchmark (the reported figure is their median).
    pub micro_batches: usize,
    /// Divides every microbenchmark's iteration count.
    pub micro_shrink: u64,
}

impl Sizing {
    /// The sizes the benchmark reports with.
    pub fn full(seconds: f64) -> Sizing {
        Sizing {
            cap: None,
            warmup: true,
            seconds,
            min_reps: 2,
            setup_samples: 15,
            setup_seconds: 1.5,
            resume_passes: 5,
            sample: 200,
            micro_batches: 5,
            micro_shrink: 1,
        }
    }

    /// One capped rep of everything: enough to exercise every code path
    /// and emit every metric name in a few seconds.
    pub fn smoke() -> Sizing {
        Sizing {
            cap: Some(WARMUP_CAP),
            warmup: false,
            seconds: 0.0,
            min_reps: 1,
            setup_samples: 1,
            setup_seconds: 0.0,
            resume_passes: 1,
            sample: 12,
            micro_batches: 1,
            micro_shrink: 100,
        }
    }
}

/// Where a run finds the `snake` worker binary and may write files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `snake` binary sharded campaigns spawn as workers.
    pub snake_bin: Option<PathBuf>,
    /// Directory for journals and trace files (inside the checkout).
    pub out_dir: PathBuf,
}

/// One journal file in the output directory, unique per process.
pub fn journal_path(env: &Env, workload: Workload, tag: &str) -> PathBuf {
    env.out_dir.join(format!(
        "journal-{}-{tag}-{}.jsonl",
        workload.name(),
        std::process::id()
    ))
}

/// Removes a journal and whatever the campaign left beside it.
pub fn remove_journal(path: &Path) {
    std::fs::remove_file(path).ok();
    let mut segments = path.as_os_str().to_owned();
    segments.push(".segments");
    std::fs::remove_dir_all(PathBuf::from(segments)).ok();
}

/// What one campaign should do beyond the workload's fixed settings.
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    /// Strategy cap for this run (`None` = uncapped).
    pub cap: Option<usize>,
    /// Journal to stream outcomes to.
    pub journal: Option<&'a Path>,
    /// Reuse the journal's outcomes instead of evaluating.
    pub resume: bool,
    /// Attach this recorder as the campaign's observer.
    pub recorder: Option<Arc<Recorder>>,
    /// Run in-process even on the sharded workload (its reference run).
    pub in_process: bool,
}

/// Builds the campaign configuration for one run of `workload`.
pub fn campaign_config(
    workload: Workload,
    seed: u64,
    env: &Env,
    options: &RunOptions<'_>,
) -> CampaignConfig {
    let on = workload.shortcuts();
    let mut builder = CampaignConfig::builder(workload.scenario(seed))
        .parallelism(PARALLELISM)
        .snapshot_fork(on)
        .memoize(on)
        .retest(on);
    if let Some(cap) = options.cap {
        builder = builder.cap(cap);
    }
    if workload.shards() > 0 && !options.in_process {
        let bin = env
            .snake_bin
            .as_ref()
            .expect("sharded workload needs the snake binary");
        builder = builder.shards(workload.shards()).shard_worker_bin(bin);
    }
    if let Some(path) = options.journal {
        builder = builder.journal(path).resume(options.resume);
    }
    if let Some(recorder) = &options.recorder {
        builder = builder.observer(recorder.clone());
    }
    builder.build().expect("workload configuration is valid")
}

/// One finished campaign with its wall-clock.
#[derive(Debug)]
pub struct TimedRun {
    /// What the campaign returned.
    pub result: CampaignResult,
    /// Wall-clock seconds of `Campaign::run`.
    pub wall_s: f64,
}

/// Runs one campaign, timing `Campaign::run` alone (configuration
/// building is outside the interval).
pub fn run_campaign(
    workload: Workload,
    seed: u64,
    env: &Env,
    options: &RunOptions<'_>,
    tracer: &Tracer,
    span: &'static str,
) -> TimedRun {
    let config = campaign_config(workload, seed, env, options);
    let _span = tracer.span(span);
    let start = Instant::now();
    let result = Campaign::run(config).expect("workload campaign runs");
    TimedRun {
        wall_s: start.elapsed().as_secs_f64(),
        result,
    }
}

/// The untimed warm-up: lets the allocator and lazy statics settle before
/// anything is timed.
pub fn warm_up(workload: Workload, seed: u64, sizing: &Sizing, env: &Env, tracer: &Tracer) {
    if sizing.warmup {
        let options = RunOptions {
            cap: Some(WARMUP_CAP),
            ..RunOptions::default()
        };
        run_campaign(workload, seed, env, &options, tracer, "campaign.warmup");
    }
}

/// The accounted-events figure `BENCH_campaign.json` history uses: the
/// baseline's simulator events plus every outcome's (memoized outcomes
/// carry their representative's count). Simulated events, host time.
pub fn accounted_events(result: &CampaignResult) -> u64 {
    result.baseline.sim_events
        + result
            .outcomes
            .iter()
            .map(|o| o.metrics.sim_events)
            .sum::<u64>()
}

/// Strategies whose evaluation did not complete.
pub fn failed_strategies(result: &CampaignResult) -> u64 {
    (result.errored() + result.truncated() + result.stalled()) as u64
}

/// Named Table II attacks among the findings ("Other" excluded).
pub fn named_attacks(result: &CampaignResult) -> u64 {
    result
        .findings
        .iter()
        .filter(|f| f.attack != snake_core::KnownAttack::Other)
        .count() as u64
}

/// FNV-1a 64 of the outcome TSV, printed per workload so two commits can
/// be diffed by eye.
pub fn outcome_digest(result: &CampaignResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in result.export_outcomes_tsv().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The set-up measurements of one run: everything paid before the first
/// strategy can be dispatched, timed several times over.
#[derive(Debug, Default)]
pub struct Setups {
    /// Seconds in `PlannedExecutor::new` (baseline run + snapshot plan),
    /// one entry per sample.
    pub plan_s: Vec<f64>,
    /// Seconds in round-0 `generate_strategies`, one entry per sample.
    pub generate_s: Vec<f64>,
    /// The round-0 strategies (identical in every sample; only the last
    /// copy is kept, so the samples do not inflate the process's RSS).
    pub strategies: Vec<Strategy>,
}

/// Builds the workload's executor and generates its round-0 strategies
/// until both `sizing.setup_samples` and `sizing.setup_seconds` are used
/// up, timing both calls each time.
pub fn measure_setups(workload: Workload, seed: u64, sizing: &Sizing, tracer: &Tracer) -> Setups {
    let spec = workload.scenario(seed);
    let begin = Instant::now();
    let mut setups = Setups::default();
    while setups.plan_s.len() < sizing.setup_samples
        || begin.elapsed().as_secs_f64() < sizing.setup_seconds
    {
        let start = Instant::now();
        let executor = {
            let _span = tracer.span("scenario.plan_build");
            PlannedExecutor::new(&spec, workload.executor_options())
        };
        setups.plan_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        setups.strategies = {
            let _span = tracer.span("strategen.generate");
            generate_strategies(
                spec.protocol(),
                &[executor.baseline().proxy.as_ref()],
                &GenerationParams::default(),
                &mut 0,
                &mut BTreeSet::new(),
            )
        };
        setups.generate_s.push(start.elapsed().as_secs_f64());
    }
    setups
}

/// Peak resident set of this process in MiB (`VmHWM`), `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
