//! SNAKE: State-based Network AttacK Explorer.
//!
//! The paper's primary contribution: automated attack discovery on
//! unmodified transport protocol implementations, using the protocol state
//! machine to reduce the search space. This crate ties the substrates
//! together into the controller/executor architecture of §V:
//!
//! * [`ScenarioSpec`] / [`Executor`] — one test run: the dumbbell topology,
//!   four protocol hosts, the attack proxy on client 1's access link, a
//!   scripted workload (bulk download, end-of-test abort), and metric
//!   collection (per-connection throughput plus the server socket census).
//! * [`generate_strategies`] — strategy generation from the packet-format
//!   spec × the `(state, packet type)` pairs observed by the state tracker
//!   (§IV-C), iteratively extended as attack runs expose new states.
//! * [`detect`] — attack detection against the no-attack baseline: ±50 %
//!   throughput change, zero-data establishment failure, or leaked server
//!   sockets (§V-A).
//! * [`Campaign`] — the paper's controller: the parallel search loop with
//!   repeatability re-testing, hitseqwindow false-positive checking, and
//!   on-path classification (§VI), producing the rows of Table I.
//! * [`cluster_attacks`] — grouping true attack strategies into the named,
//!   unique attacks of Table II.
//! * [`search`] — the §VI-C comparison against the send-packet-based and
//!   time-interval-based injection models.
//! * [`tables`] — the whole evaluation regenerated in one pass (`snake
//!   tables`), with the paper's shape as checks over it.
//!
//! # Examples
//!
//! A miniature campaign (a few strategies) against Linux 3.13 TCP:
//!
//! ```no_run
//! use snake_core::{Campaign, CampaignConfig, ProtocolKind, ScenarioSpec};
//! use snake_tcp::Profile;
//!
//! let spec = ScenarioSpec::evaluation(ProtocolKind::Tcp(Profile::linux_3_13()));
//! let config = CampaignConfig::builder(spec).cap(25).build().expect("valid config");
//! let result = Campaign::run(config).expect("baseline must transfer data");
//! println!("{}", result.table_row());
//! ```
//!
//! To observe a campaign (phase spans, memo-layer counters, per-worker
//! histograms), attach a [`Recorder`] through the builder and fold its
//! snapshot into a [`RunManifest`] with [`build_run_manifest`]:
//!
//! ```no_run
//! use std::sync::Arc;
//! use snake_core::{build_run_manifest, Campaign, CampaignConfig, ProtocolKind, ScenarioSpec};
//! use snake_observe::Recorder;
//! use snake_tcp::Profile;
//!
//! let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
//! let recorder = Arc::new(Recorder::new());
//! let config = CampaignConfig::builder(spec)
//!     .cap(25)
//!     .observer(recorder.clone())
//!     .build()
//!     .expect("valid config");
//! let start = std::time::Instant::now();
//! let result = Campaign::run(config).expect("baseline must transfer data");
//! let manifest = build_run_manifest(&result, &recorder.snapshot(), start.elapsed().as_secs_f64());
//! println!("{}", manifest.to_json().to_string_compact());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod admission;
mod attacks;
mod campaign;
mod chaos;
mod config;
mod detect;
mod dispatch;
mod evaluate;
mod framed;
pub mod journal;
mod manifest;
mod report;
mod result;
mod scenario;
pub mod search;
mod shard;
mod strategen;
pub mod tables;

pub use attacks::{classify, cluster_attacks, AttackFinding, KnownAttack};
pub use campaign::Campaign;
pub use chaos::ChaosPlan;
pub use config::{CampaignConfig, CampaignConfigBuilder, CampaignError, FaultHook};
pub use detect::{
    baseline_valid, detect, detect_enveloped, Envelope, Verdict, DEFAULT_THRESHOLD,
    TABLE_LEAK_MARGIN,
};
pub use manifest::build_run_manifest;
pub use report::{render_table1, render_table2};
pub use result::{CampaignResult, Memo, OutcomeKind, StrategyOutcome};
pub use scenario::{
    scenario_digest, Executor, ExecutorOptions, FlowGroup, FlowRole, PlannedExecutor, ProtocolKind,
    RunInfo, ScenarioError, ScenarioSpec, ScenarioSpecBuilder, TestMetrics, TopologySpec,
};
pub use shard::run_shard_worker;
pub use snake_netsim::{TopologyGenSpec, TopologyKind};
pub use snake_observe::{NullObserver, Observer, Recorder, RecorderSnapshot, RunManifest};
pub use strategen::{generate_strategies, is_on_path, is_self_denial, GenerationParams};
