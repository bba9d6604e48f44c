//! The end-to-end run (`--trace 0`): untraced campaigns, timed from
//! outside, reported as medians over the reps one process makes.

use snake_json::{obj, Value};

use crate::report::{floats, Gates, Metric, RunReport};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{
    accounted_events, failed_strategies, journal_path, measure_setups, named_attacks,
    outcome_digest, peak_rss_mib, remove_journal, run_campaign, warm_up, Env, RunOptions, Sizing,
    Workload,
};

/// Runs `workload` end to end: one untimed warm-up, set-up measurements,
/// timed journaled campaign reps for about `sizing.seconds`, then timed
/// resume passes over the last journal.
///
/// Gates: every rep's outcome digest equals the first rep's, and every
/// resume pass reuses every outcome and reproduces the result. (The
/// sharded workload's in-process reference costs a whole extra campaign,
/// so the per-layer run checks it.)
pub fn run_end_to_end(workload: Workload, seed: u64, sizing: &Sizing, env: &Env) -> RunReport {
    let tracer = Tracer::disabled();
    let mut gates = Gates::default();
    let cap = sizing.cap.or(workload.cap());

    // Set-up is timed after the warm-up: read in a cold process it swings
    // by half between two runs of the same commit.
    warm_up(workload, seed, sizing, env, &tracer);
    let setups = measure_setups(workload, seed, sizing, &tracer);
    let setup_s: Vec<f64> = setups
        .plan_s
        .iter()
        .zip(&setups.generate_s)
        .map(|(plan, generate)| plan + generate)
        .collect();
    drop(setups);

    let journal = journal_path(env, workload, "e2e");
    let mut walls = Vec::new();
    let mut first: Option<(u64, snake_core::CampaignResult)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let options = RunOptions {
            cap,
            journal: Some(&journal),
            ..RunOptions::default()
        };
        let run = run_campaign(workload, seed, env, &options, &tracer, "campaign.run");
        let strategies = run.result.strategies_tried() as u64;
        attempted += strategies;
        failed += failed_strategies(&run.result);
        let digest = outcome_digest(&run.result);
        match &first {
            None => first = Some((digest, run.result)),
            Some((first_digest, _)) if *first_digest != digest => {
                failed += strategies;
                gates.check(false, || {
                    format!(
                        "rep {} digest {digest:016x} differs from rep 1",
                        walls.len() + 1
                    )
                });
            }
            Some(_) => {}
        }
        walls.push(run.wall_s);
        // Stop at the whole rep nearest to the requested measuring time.
        let elapsed: f64 = walls.iter().sum();
        if walls.len() >= sizing.min_reps && elapsed + run.wall_s / 2.0 >= sizing.seconds {
            break;
        }
    }
    let (digest, result) = first.expect("at least one rep ran");
    let resume_s: Vec<f64> = (0..sizing.resume_passes)
        .map(|pass| {
            let options = RunOptions {
                cap,
                journal: Some(&journal),
                resume: true,
                ..RunOptions::default()
            };
            let run = run_campaign(workload, seed, env, &options, &tracer, "campaign.resume");
            gates.check(run.result.resumed == result.outcomes.len(), || {
                format!(
                    "resume pass {} reused {} of {} outcomes",
                    pass + 1,
                    run.result.resumed,
                    result.outcomes.len()
                )
            });
            gates.check(run.result.outcomes == result.outcomes, || {
                format!("resume pass {} changed the outcomes", pass + 1)
            });
            run.wall_s
        })
        .collect();
    remove_journal(&journal);

    let strategies = result.strategies_tried() as f64;
    let events = accounted_events(&result) as f64;
    let strategies_per_s: Vec<f64> = walls.iter().map(|w| strategies / w).collect();
    let events_per_s: Vec<f64> = walls.iter().map(|w| events / w).collect();
    let peak_rss = peak_rss_mib();
    gates.check(peak_rss.is_some(), || {
        "VmHWM is not readable from /proc/self/status".to_owned()
    });
    let peak_rss = peak_rss.unwrap_or(f64::NAN);

    RunReport {
        attempted,
        failed,
        metrics: vec![
            Metric::new("strategies_per_s", median(&strategies_per_s), "1/s"),
            Metric::new("events_per_s", median(&events_per_s), "1/s"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mib", peak_rss, "MiB"),
            Metric::new("resume_s", median(&resume_s), "s"),
        ],
        gate_failures: gates.failures().to_vec(),
        detail: obj([
            ("workload", Value::Str(workload.name().to_owned())),
            ("seed", Value::U64(seed)),
            ("digest", Value::Str(format!("{digest:016x}"))),
            ("strategies", Value::U64(strategies as u64)),
            ("accounted_events", Value::U64(events as u64)),
            ("named_attacks_found", Value::U64(named_attacks(&result))),
            (
                "samples",
                obj([
                    ("strategies_per_s", floats(&strategies_per_s)),
                    ("events_per_s", floats(&events_per_s)),
                    ("setup_s", floats(&setup_s)),
                    ("peak_rss_mib", floats(&[peak_rss])),
                    ("resume_s", floats(&resume_s)),
                ]),
            ),
        ]),
    }
}
