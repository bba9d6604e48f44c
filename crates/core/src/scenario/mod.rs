//! A test scenario and the executors that run it (paper §V-A).

mod json;
mod plan;
mod run;
mod spec;
#[cfg(test)]
mod tests;

pub use plan::{ExecutorOptions, PlannedExecutor, RunInfo};
pub use run::{Executor, TestMetrics};
pub use spec::{
    scenario_digest, FlowGroup, FlowRole, ProtocolKind, ScenarioError, ScenarioSpec,
    ScenarioSpecBuilder, TopologySpec,
};
