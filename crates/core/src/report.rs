//! Text rendering of the evaluation tables.

use crate::attacks::KnownAttack;
use crate::result::CampaignResult;

/// Renders Table I ("Summary of SNAKE results") from a set of campaigns.
pub fn render_table1(results: &[CampaignResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "| Proto | Implementation | Strategies Tried | Attack Strategies Found | On-path Attacks | False Positives | True Attack Strategies | True Attacks | Errored | Truncated |\n",
    );
    out.push_str(
        "|-------|----------------|------------------|-------------------------|-----------------|-----------------|------------------------|--------------|---------|-----------|\n",
    );
    for r in results {
        out.push_str(&r.table_row());
        out.push('\n');
    }
    out
}

/// Renders Table II ("Summary of attacks discovered") from a set of
/// campaigns: each unique attack with the implementations it was found on.
pub fn render_table2(results: &[CampaignResult]) -> String {
    // Collect (attack, implementations, effects).
    let mut rows: Vec<(KnownAttack, Vec<String>, Vec<String>)> = Vec::new();
    for r in results {
        for f in &r.findings {
            match rows.iter_mut().find(|(a, _, _)| *a == f.attack) {
                Some((_, impls, effects)) => {
                    if !impls.contains(&r.implementation) {
                        impls.push(r.implementation.clone());
                    }
                    for e in &f.effects {
                        if !effects.contains(e) {
                            effects.push(e.clone());
                        }
                    }
                }
                None => {
                    rows.push((f.attack, vec![r.implementation.clone()], f.effects.clone()));
                }
            }
        }
    }
    rows.sort_by_key(|(a, _, _)| *a);

    let mut out = String::new();
    out.push_str("| Attack | Impact | Implementations | Observed effects |\n");
    out.push_str("|--------|--------|-----------------|------------------|\n");
    for (attack, impls, effects) in rows {
        out.push_str(&format!(
            "| {:<52} | {:<22} | {:<28} | {} |\n",
            attack.name(),
            attack.impact(),
            impls.join(" / "),
            effects.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::AttackFinding;
    use crate::scenario::TestMetrics;

    fn fake_result(implementation: &str, attack: KnownAttack) -> CampaignResult {
        CampaignResult {
            protocol: "TCP".into(),
            implementation: implementation.into(),
            baseline: TestMetrics {
                target_bytes: 1,
                competing_bytes: 1,
                ..TestMetrics::empty()
            },
            outcomes: Vec::new(),
            findings: vec![AttackFinding {
                attack,
                strategy_ids: vec![1],
                example: "example".into(),
                effects: vec!["degradation".into()],
            }],
            resumed: 0,
            journal_lines_skipped: 0,
            memo_hits: 0,
            short_circuits: 0,
            baseline_reps: 1,
            envelope: crate::detect::Envelope::from_baseline(
                &TestMetrics::empty(),
                crate::detect::DEFAULT_THRESHOLD,
            ),
            escalated: 0,
        }
    }

    #[test]
    fn table1_has_header_and_rows() {
        let results = vec![fake_result("Linux 3.0.0", KnownAttack::ResetAttack)];
        let t = render_table1(&results);
        assert!(t.contains("Strategies Tried"));
        assert!(t.contains("Linux 3.0.0"));
    }

    #[test]
    fn table2_merges_implementations() {
        let results = vec![
            fake_result("Linux 3.0.0", KnownAttack::ResetAttack),
            fake_result("Windows 8.1", KnownAttack::ResetAttack),
        ];
        let t = render_table2(&results);
        assert_eq!(t.matches("Reset Attack").count(), 1, "one merged row:\n{t}");
        assert!(t.contains("Linux 3.0.0 / Windows 8.1"));
        assert!(t.contains("Client DoS"));
    }
}
