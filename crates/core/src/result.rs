//! What a campaign produces: per-strategy outcomes and the aggregated
//! [`CampaignResult`] with its Table I row and TSV export.

use snake_proxy::Strategy;

use crate::attacks::AttackFinding;
use crate::detect::{Envelope, Verdict};
use crate::scenario::TestMetrics;

/// How a strategy's evaluation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The run completed normally; the verdict is meaningful.
    Ok,
    /// The engine panicked while evaluating the strategy. The panic was
    /// contained, the metrics are zeroed, and the verdict is empty.
    Errored,
    /// The run hit the scenario's event budget (a livelock guard) and was
    /// cut short; the verdict is empty because partial throughput cannot
    /// be compared against a full-length baseline.
    Truncated,
    /// The evaluation produced no outcome within the watchdog's wall-clock
    /// deadline, was retried up to the retry budget, and was quarantined.
    /// The metrics are zeroed and the verdict is empty; the campaign
    /// continues instead of hanging (see
    /// [`CampaignConfigBuilder::deadline`](crate::CampaignConfigBuilder::deadline)).
    Stalled,
}

impl OutcomeKind {
    /// Stable lower-case label, used in the journal and TSV export.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Errored => "errored",
            OutcomeKind::Truncated => "truncated",
            OutcomeKind::Stalled => "stalled",
        }
    }
}

/// The outcome of testing one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The strategy tested.
    pub strategy: Strategy,
    /// Detection verdict against the baseline (empty unless `outcome_kind`
    /// is [`OutcomeKind::Ok`]).
    pub verdict: Verdict,
    /// Raw metrics of the (first) attack run.
    pub metrics: TestMetrics,
    /// Whether the flagged result repeated under a different seed.
    pub repeatable: bool,
    /// Whether the strategy requires an on-path attacker.
    pub on_path: bool,
    /// Whether the inert-volume control run showed the impact comes from
    /// packet volume rather than protocol effect (hitseqwindow false
    /// positives, §VI-A).
    pub false_positive: bool,
    /// Whether the evaluation completed, panicked, or was truncated.
    pub outcome_kind: OutcomeKind,
    /// The panic message, when `outcome_kind` is [`OutcomeKind::Errored`].
    pub error: Option<String>,
    /// How memoization answered this outcome without a run of its own;
    /// `None` for outcomes that were simulated. Recorded in the journal so
    /// `--resume` replays memoized outcomes exactly.
    pub memo: Option<Memo>,
}

/// The memoization layer that answered an outcome without simulating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memo {
    /// A statically provable wire no-op, answered with the baseline
    /// outcome.
    Inert,
    /// A trigger-equivalent class member, answered with its
    /// representative's run.
    Class,
}

impl Memo {
    /// The marker's journal and manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Memo::Inert => "inert",
            Memo::Class => "class",
        }
    }
}

impl StrategyOutcome {
    /// Flagged, repeatable, not on-path, not a false positive — and from a
    /// run that actually completed: a true attack strategy (the paper's
    /// final per-row count).
    pub fn is_true_attack(&self) -> bool {
        self.outcome_kind == OutcomeKind::Ok
            && self.verdict.flagged()
            && self.repeatable
            && !self.on_path
            && !self.false_positive
    }
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Protocol name ("TCP" / "DCCP").
    pub protocol: String,
    /// Implementation name.
    pub implementation: String,
    /// The baseline (no-attack) metrics.
    pub baseline: TestMetrics,
    /// Every strategy outcome.
    pub outcomes: Vec<StrategyOutcome>,
    /// Unique attacks found (clusters of true attack strategies).
    pub findings: Vec<AttackFinding>,
    /// Outcomes reused from a resumed journal instead of re-run.
    pub resumed: usize,
    /// Journal lines that could not be parsed on resume (a killed writer
    /// can leave a partial final line; it is skipped, not fatal).
    pub journal_lines_skipped: usize,
    /// Memoization hits: outcomes that shared a trigger-equivalent
    /// representative's run ([`Memo::Class`]). Derived by counting the
    /// outcome markers, so the run manifest's memo breakdown always sums
    /// back to this field. Zero when memoization is off.
    pub memo_hits: usize,
    /// Runs short-circuited outright: statically provable wire no-ops
    /// answered with the baseline outcome ([`Memo::Inert`]). Derived from
    /// the outcome markers. Zero when memoization is off.
    pub short_circuits: usize,
    /// How many seed-jittered baselines anchor the detection envelope
    /// (1 = the legacy single baseline).
    pub baseline_reps: usize,
    /// The detection envelope every verdict was judged against.
    pub envelope: Envelope,
    /// Borderline verdicts escalated to a confirmatory re-test (only
    /// tallied when `baseline_reps > 1`).
    pub escalated: usize,
    /// Watchdog deadline expiries, counting every attempt (one strategy
    /// retried twice contributes three).
    pub stalls: usize,
    /// Strategies quarantined as [`OutcomeKind::Stalled`] after the
    /// watchdog's retry budget ran out.
    pub quarantined: usize,
}

impl CampaignResult {
    /// Table I: strategies tried.
    pub fn strategies_tried(&self) -> usize {
        self.outcomes.len()
    }

    /// Table I: attack strategies found (flagged and repeatable, from
    /// completed runs).
    pub fn attack_strategies_found(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Ok && o.verdict.flagged() && o.repeatable)
            .count()
    }

    /// Table I: of the found strategies, those requiring an on-path
    /// attacker.
    pub fn on_path_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.outcome_kind == OutcomeKind::Ok
                    && o.verdict.flagged()
                    && o.repeatable
                    && o.on_path
            })
            .count()
    }

    /// Table I: of the found strategies, hitseqwindow volume artefacts.
    pub fn false_positive_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.outcome_kind == OutcomeKind::Ok
                    && o.verdict.flagged()
                    && o.repeatable
                    && !o.on_path
                    && o.false_positive
            })
            .count()
    }

    /// Table I: true attack strategies.
    pub fn true_attack_strategies(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_true_attack()).count()
    }

    /// Table I: unique true attacks after clustering.
    pub fn true_attacks(&self) -> usize {
        self.findings.len()
    }

    /// Strategies whose evaluation panicked (contained, not fatal).
    pub fn errored(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Errored)
            .count()
    }

    /// Strategies whose run hit the event budget and was cut short.
    pub fn truncated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Truncated)
            .count()
    }

    /// Strategies quarantined by the watchdog as stalled.
    pub fn stalled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Stalled)
            .count()
    }

    /// Exports every strategy outcome as tab-separated values (one row per
    /// strategy) for offline analysis — the controller-side log the
    /// paper's authors worked from when separating on-path strategies and
    /// false positives by hand. Free-text fields (the strategy description
    /// and panic messages) are escaped so each outcome stays exactly one
    /// row with a fixed column count.
    pub fn export_outcomes_tsv(&self) -> String {
        let mut out = String::from(
            "id\tstrategy\toutcome\tflagged\trepeatable\ton_path\tfalse_positive\ttrue_attack\teffects\ttarget_bytes\tcompeting_bytes\tleaked_sockets\terror\n",
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                o.strategy.id,
                tsv_escape(&o.strategy.describe()),
                o.outcome_kind.label(),
                o.verdict.flagged(),
                o.repeatable,
                o.on_path,
                o.false_positive,
                o.is_true_attack(),
                o.verdict.labels().join(","),
                o.metrics.target_bytes,
                o.metrics.competing_bytes,
                o.metrics.leaked_sockets,
                tsv_escape(o.error.as_deref().unwrap_or("")),
            ));
        }
        out
    }

    /// Renders this campaign as one Table I row.
    pub fn table_row(&self) -> String {
        format!(
            "| {:<5} | {:<13} | {:>16} | {:>23} | {:>15} | {:>15} | {:>22} | {:>12} | {:>7} | {:>9} |",
            self.protocol,
            self.implementation,
            self.strategies_tried(),
            self.attack_strategies_found(),
            self.on_path_count(),
            self.false_positive_count(),
            self.true_attack_strategies(),
            self.true_attacks(),
            self.errored(),
            self.truncated()
        )
    }
}

/// Escapes a free-text value for one TSV cell: backslash, tab, newline and
/// carriage return become two-character escapes, so the row and column
/// structure of the export survives any `Strategy::describe()` output.
fn tsv_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}
