use crate::scenario::TestMetrics;

/// The paper's detection threshold: "an increase or decrease in achieved
/// throughput of at least 50% compared to the non-attack case" (§VI),
/// grounded in the factor-of-two fairness notion of TFRC.
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// How close (relative to the boundary) an attacked measurement must sit
/// to an envelope edge to count as *borderline* — the campaign escalates
/// such verdicts to a different-seed re-test regardless of which side of
/// the edge they landed on.
pub const BORDERLINE_MARGIN: f64 = 0.1;

/// Consistency factor making the median absolute deviation comparable to a
/// standard deviation for normally distributed noise.
const MAD_SCALE: f64 = 1.4826;

/// Absolute slack on the table-exhaustion edges: leak totals and occupancy
/// readings must clear the baseline's worst observation by more than this
/// many sockets before flagging, so connection-churn jitter of a handful of
/// TIME_WAIT slots never looks like exhaustion.
pub const TABLE_LEAK_MARGIN: usize = 8;

/// The occupancy edge for table exhaustion: strictly above twice the worst
/// baseline occupancy plus the absolute margin. Doubling mirrors the
/// paper's factor-of-two throughput notion; the margin handles near-zero
/// baselines where a ratio alone is meaningless.
fn exhaustion_edge(observed_max: usize) -> usize {
    2 * observed_max + TABLE_LEAK_MARGIN
}

/// What an attempted strategy did to the connection, relative to the
/// baseline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// The target connection transferred no data at all — a
    /// connection-establishment attack.
    pub establishment_prevented: bool,
    /// Target throughput fell below `(1 - threshold) ×` baseline.
    pub throughput_degradation: bool,
    /// Target throughput rose above `(1 + threshold) ×` baseline — a
    /// fairness attack (the gain comes out of the competing flow).
    pub throughput_gain: bool,
    /// The competing connection fell below `(1 - threshold) ×` its
    /// baseline.
    pub competing_degradation: bool,
    /// Server sockets were not released after the test — a resource
    /// exhaustion candidate.
    pub socket_leak: bool,
    /// Jain's fairness index over the per-flow delivery vector collapsed
    /// below the baseline band — bandwidth is being redistributed across
    /// flows even if aggregate throughput looks healthy. Multi-flow
    /// scenarios only (more than two flows).
    pub fairness_collapse: bool,
    /// More flows were starved of the shared bottleneck (delivered under
    /// 10 % of their fair share) than in any baseline run. Multi-flow
    /// scenarios only.
    pub flow_starvation: bool,
    /// Server socket tables held far more connections than any baseline
    /// run — accept-queue/socket-table exhaustion, the state-holding attack
    /// class. Multi-flow scenarios only.
    pub table_exhaustion: bool,
}

impl Verdict {
    /// Whether the strategy is flagged as a candidate attack.
    pub fn flagged(&self) -> bool {
        self.establishment_prevented
            || self.throughput_degradation
            || self.throughput_gain
            || self.competing_degradation
            || self.socket_leak
            || self.fairness_collapse
            || self.flow_starvation
            || self.table_exhaustion
    }

    /// Short labels for reports.
    pub fn labels(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.establishment_prevented {
            v.push("no-connection");
        }
        if self.throughput_degradation {
            v.push("degradation");
        }
        if self.throughput_gain {
            v.push("gain");
        }
        if self.competing_degradation {
            v.push("competing-degradation");
        }
        if self.socket_leak {
            v.push("socket-leak");
        }
        if self.fairness_collapse {
            v.push("fairness-collapse");
        }
        if self.flow_starvation {
            v.push("flow-starvation");
        }
        if self.table_exhaustion {
            v.push("table-exhaustion");
        }
        v
    }
}

/// Compares a strategy run against the baseline run (paper §V-A: "the
/// controller ... compares the received metrics observed after the tested
/// attack with the metrics observed in a non-attack test run").
///
/// A baseline that moved zero bytes cannot anchor any throughput
/// comparison — every attack run would spuriously flag `throughput_gain`
/// against it. [`baseline_valid`] rejects such baselines, and
/// `Campaign::run` surfaces that as an explicit error before testing a
/// single strategy; here the throughput comparisons simply disengage so a
/// caller probing `detect` directly gets no bogus flags either.
pub fn detect(baseline: &TestMetrics, attacked: &TestMetrics, threshold: f64) -> Verdict {
    let lo = 1.0 - threshold;
    let hi = 1.0 + threshold;
    let base_t = baseline.target_bytes as f64;
    let base_c = baseline.competing_bytes as f64;
    let t = attacked.target_bytes as f64;
    let c = attacked.competing_bytes as f64;
    // The cross-flow metrics engage only when both runs actually carried a
    // multi-flow workload; classic two-flow scenarios keep their legacy
    // verdicts bit for bit (fairness over two flows is already covered by
    // the throughput/competing comparisons).
    let multi = baseline.flow_bytes.len() > 2 && attacked.flow_bytes.len() > 2;
    let base_jain = baseline.jain_index();
    let jain_lo = (lo * base_jain).min(base_jain);

    Verdict {
        establishment_prevented: attacked.target_bytes == 0 && baseline.target_bytes > 0,
        throughput_degradation: baseline.target_bytes > 0
            && attacked.target_bytes > 0
            && t < base_t * lo,
        throughput_gain: baseline.target_bytes > 0 && t > base_t * hi,
        competing_degradation: baseline.competing_bytes > 0 && c < base_c * lo,
        socket_leak: attacked.leaked_sockets > baseline.leaked_sockets,
        fairness_collapse: multi && base_jain > 0.0 && attacked.jain_index() < jain_lo,
        flow_starvation: multi && attacked.starved_flows() > baseline.starved_flows(),
        table_exhaustion: multi
            && (attacked.leaked_total > baseline.leaked_total + TABLE_LEAK_MARGIN
                || attacked.server_sockets > exhaustion_edge(baseline.server_sockets)),
    }
}

/// Whether a baseline run can anchor detection: it must have moved data on
/// the target connection. Campaigns treat a failing baseline as an invalid
/// precondition (see `CampaignError::InvalidBaseline`).
pub fn baseline_valid(baseline: &TestMetrics) -> bool {
    baseline.target_bytes > 0
}

/// A noise-tolerant detection band, built from an *ensemble* of
/// seed-jittered no-attack runs under the active network conditions.
///
/// A single deterministic baseline is one unlucky queue drop away from a
/// false "degradation" flag the moment link impairments add stochastic
/// loss or jitter. The envelope widens the paper's `threshold` band by the
/// spread the ensemble actually exhibited: the throughput edges are the
/// threshold band around the ensemble *median*, pushed out by three
/// scaled-MAD units of observed noise, and — by construction — always wide
/// enough to contain every member, so a no-attack run that was itself a
/// member can never flag.
///
/// With a single member the MAD is zero and the min/max expansion is the
/// member itself, so [`detect_enveloped`] degenerates to exactly
/// [`detect`] against that baseline — campaigns with `baseline_reps == 1`
/// keep the legacy behaviour bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// How many ensemble members the envelope was built from.
    pub members: usize,
    /// Median target-connection bytes across the members.
    pub target_median: f64,
    /// Degradation edge: flag only below this many target bytes.
    pub target_lo: f64,
    /// Gain edge: flag only above this many target bytes.
    pub target_hi: f64,
    /// Median competing-connection bytes across the members.
    pub competing_median: f64,
    /// Competing-degradation edge.
    pub competing_lo: f64,
    /// Largest leaked-socket count any member showed; leaks flag only
    /// strictly above it.
    pub leaked_max: usize,
    /// Smallest member target-byte count. Zero disables
    /// establishment-prevention detection (some member failed to connect
    /// on its own, so a zero-byte attacked run proves nothing).
    pub target_min: u64,
    /// Whether every member carried a multi-flow workload (more than two
    /// flows); the cross-flow detectors disengage otherwise.
    pub cross_flow: bool,
    /// Median Jain's index across the members.
    pub jain_median: f64,
    /// Fairness-collapse edge: flag only strictly below this index.
    pub jain_lo: f64,
    /// Largest starved-flow count any member showed.
    pub starved_max: usize,
    /// Largest socket-table occupancy any member showed.
    pub sockets_max: usize,
    /// Largest all-server leak total any member showed.
    pub leaked_total_max: usize,
}

/// Median and median-absolute-deviation of a sample (empty ⇒ zeros).
fn median_mad(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let med = median_of(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    (med, median_of(&deviations))
}

fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

impl Envelope {
    /// Builds the envelope from the ensemble members (at least one) and
    /// the detection threshold.
    pub fn from_members(members: &[TestMetrics], threshold: f64) -> Envelope {
        assert!(!members.is_empty(), "an envelope needs at least one member");
        let targets: Vec<f64> = members.iter().map(|m| m.target_bytes as f64).collect();
        let competing: Vec<f64> = members.iter().map(|m| m.competing_bytes as f64).collect();
        let (t_med, t_mad) = median_mad(&targets);
        let (c_med, c_mad) = median_mad(&competing);
        let t_noise = 3.0 * MAD_SCALE * t_mad;
        let c_noise = 3.0 * MAD_SCALE * c_mad;
        let t_min = targets.iter().cloned().fold(f64::INFINITY, f64::min);
        let t_max = targets.iter().cloned().fold(0.0f64, f64::max);
        let c_min = competing.iter().cloned().fold(f64::INFINITY, f64::min);
        let jains: Vec<f64> = members.iter().map(|m| m.jain_index()).collect();
        let (j_med, j_mad) = median_mad(&jains);
        let j_noise = 3.0 * MAD_SCALE * j_mad;
        let j_min = jains.iter().cloned().fold(f64::INFINITY, f64::min);
        Envelope {
            members: members.len(),
            target_median: t_med,
            target_lo: ((1.0 - threshold) * t_med - t_noise).min(t_min),
            target_hi: ((1.0 + threshold) * t_med + t_noise).max(t_max),
            competing_median: c_med,
            competing_lo: ((1.0 - threshold) * c_med - c_noise).min(c_min),
            leaked_max: members.iter().map(|m| m.leaked_sockets).max().unwrap_or(0),
            target_min: members.iter().map(|m| m.target_bytes).min().unwrap_or(0),
            cross_flow: members.iter().all(|m| m.flow_bytes.len() > 2),
            jain_median: j_med,
            // Like target_lo: the threshold band around the median, pushed
            // out by observed noise, never excluding a member.
            jain_lo: ((1.0 - threshold) * j_med - j_noise).min(j_min),
            starved_max: members.iter().map(|m| m.starved_flows()).max().unwrap_or(0),
            sockets_max: members.iter().map(|m| m.server_sockets).max().unwrap_or(0),
            leaked_total_max: members.iter().map(|m| m.leaked_total).max().unwrap_or(0),
        }
    }

    /// The single-baseline envelope [`detect`] implicitly uses.
    pub fn from_baseline(baseline: &TestMetrics, threshold: f64) -> Envelope {
        Envelope::from_members(std::slice::from_ref(baseline), threshold)
    }

    /// Whether `attacked` lands within `BORDERLINE_MARGIN` (10 %) of a
    /// throughput edge (either side) or exactly on the leak edge — close
    /// enough that the campaign escalates the verdict to a re-test instead
    /// of trusting one draw of the noise.
    pub fn is_borderline(&self, attacked: &TestMetrics) -> bool {
        let near =
            |value: f64, edge: f64| edge > 0.0 && (value - edge).abs() <= BORDERLINE_MARGIN * edge;
        let t = attacked.target_bytes as f64;
        let c = attacked.competing_bytes as f64;
        (self.target_median > 0.0 && (near(t, self.target_lo) || near(t, self.target_hi)))
            || (self.competing_median > 0.0 && near(c, self.competing_lo))
            || (self.leaked_max > 0 && attacked.leaked_sockets == self.leaked_max)
    }

    /// Width of the target-throughput band, as a fraction of the median
    /// (for the run manifest's robustness section).
    pub fn target_width_fraction(&self) -> f64 {
        if self.target_median > 0.0 {
            (self.target_hi - self.target_lo) / self.target_median
        } else {
            0.0
        }
    }
}

/// [`detect`] generalized to an ensemble envelope: flags only outside the
/// noise-widened band. A member of the ensemble can never flag against its
/// own envelope (the edges were expanded to contain every member), which
/// is what guarantees zero false positives for no-attack runs under the
/// impairment preset the ensemble was measured under.
pub fn detect_enveloped(envelope: &Envelope, attacked: &TestMetrics) -> Verdict {
    let t = attacked.target_bytes as f64;
    let c = attacked.competing_bytes as f64;
    let multi = envelope.cross_flow && attacked.flow_bytes.len() > 2;
    Verdict {
        establishment_prevented: attacked.target_bytes == 0 && envelope.target_min > 0,
        throughput_degradation: envelope.target_median > 0.0
            && attacked.target_bytes > 0
            && t < envelope.target_lo,
        throughput_gain: envelope.target_median > 0.0 && t > envelope.target_hi,
        competing_degradation: envelope.competing_median > 0.0 && c < envelope.competing_lo,
        socket_leak: attacked.leaked_sockets > envelope.leaked_max,
        fairness_collapse: multi
            && envelope.jain_median > 0.0
            && attacked.jain_index() < envelope.jain_lo,
        flow_starvation: multi && attacked.starved_flows() > envelope.starved_max,
        table_exhaustion: multi
            && (attacked.leaked_total > envelope.leaked_total_max + TABLE_LEAK_MARGIN
                || attacked.server_sockets > exhaustion_edge(envelope.sockets_max)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(target: u64, competing: u64, leaked: usize) -> TestMetrics {
        TestMetrics {
            target_bytes: target,
            competing_bytes: competing,
            leaked_sockets: leaked,
            ..TestMetrics::empty()
        }
    }

    #[test]
    fn no_change_is_clean() {
        let base = metrics(10_000_000, 10_000_000, 0);
        let v = detect(&base, &base.clone(), DEFAULT_THRESHOLD);
        assert!(!v.flagged());
    }

    #[test]
    fn small_changes_stay_below_threshold() {
        let base = metrics(10_000_000, 10_000_000, 0);
        let v = detect(&base, &metrics(7_000_000, 12_000_000, 0), DEFAULT_THRESHOLD);
        assert!(
            !v.flagged(),
            "30% dip is within the factor-of-two fairness band"
        );
    }

    #[test]
    fn degradation_detected() {
        let base = metrics(10_000_000, 10_000_000, 0);
        let v = detect(&base, &metrics(2_000_000, 14_000_000, 0), DEFAULT_THRESHOLD);
        assert!(v.throughput_degradation);
        assert!(!v.establishment_prevented);
        assert!(v.flagged());
    }

    #[test]
    fn gain_detected() {
        let base = metrics(10_000_000, 10_000_000, 0);
        let v = detect(&base, &metrics(16_000_000, 4_000_000, 0), DEFAULT_THRESHOLD);
        assert!(v.throughput_gain);
        assert!(v.competing_degradation);
    }

    #[test]
    fn zero_data_is_establishment_prevention() {
        let base = metrics(10_000_000, 10_000_000, 0);
        let v = detect(&base, &metrics(0, 10_000_000, 0), DEFAULT_THRESHOLD);
        assert!(v.establishment_prevented);
        assert!(!v.throughput_degradation, "zero data is its own category");
    }

    #[test]
    fn zero_byte_baseline_is_invalid_not_a_gain() {
        let broken = metrics(0, 0, 0);
        assert!(!baseline_valid(&broken));
        assert!(baseline_valid(&metrics(1, 0, 0)));
        // Even when probed directly, a broken baseline produces no bogus
        // throughput flags (previously every run flagged `gain` against a
        // baseline clamped to one byte).
        let v = detect(
            &broken,
            &metrics(10_000_000, 10_000_000, 0),
            DEFAULT_THRESHOLD,
        );
        assert!(!v.throughput_gain);
        assert!(!v.flagged());
    }

    #[test]
    fn socket_leak_detected() {
        let base = metrics(10_000_000, 10_000_000, 0);
        let v = detect(&base, &metrics(9_500_000, 10_000_000, 1), DEFAULT_THRESHOLD);
        assert!(v.socket_leak);
        assert!(v.flagged());
        assert_eq!(v.labels(), vec!["socket-leak"]);
    }

    #[test]
    fn single_member_envelope_degenerates_to_detect() {
        let base = metrics(10_000_000, 9_000_000, 0);
        let env = Envelope::from_baseline(&base, DEFAULT_THRESHOLD);
        for attacked in [
            metrics(10_000_000, 9_000_000, 0),
            metrics(2_000_000, 14_000_000, 0),
            metrics(16_000_000, 4_000_000, 0),
            metrics(0, 9_000_000, 0),
            metrics(9_500_000, 9_000_000, 1),
            metrics(4_999_999, 9_000_000, 0),
            metrics(5_000_000, 9_000_000, 0),
        ] {
            assert_eq!(
                detect_enveloped(&env, &attacked),
                detect(&base, &attacked, DEFAULT_THRESHOLD),
                "K=1 must reproduce the legacy verdict for {attacked:?}"
            );
        }
    }

    #[test]
    fn ensemble_members_never_flag_against_their_own_envelope() {
        // A wild ensemble — the min/max expansion must cover even members
        // far outside the threshold band around the median.
        let members = [
            metrics(10_000_000, 9_000_000, 0),
            metrics(4_000_000, 12_000_000, 1),
            metrics(17_000_000, 2_000_000, 0),
        ];
        let env = Envelope::from_members(&members, DEFAULT_THRESHOLD);
        for m in &members {
            assert!(
                !detect_enveloped(&env, m).flagged(),
                "member {m:?} flagged against its own envelope"
            );
        }
    }

    #[test]
    fn envelope_widens_with_observed_noise() {
        let tight = [
            metrics(10_000_000, 10_000_000, 0),
            metrics(10_000_100, 10_000_000, 0),
            metrics(9_999_900, 10_000_000, 0),
        ];
        let noisy = [
            metrics(10_000_000, 10_000_000, 0),
            metrics(11_000_000, 10_000_000, 0),
            metrics(9_000_000, 10_000_000, 0),
        ];
        let tight_env = Envelope::from_members(&tight, DEFAULT_THRESHOLD);
        let noisy_env = Envelope::from_members(&noisy, DEFAULT_THRESHOLD);
        assert!(noisy_env.target_lo < tight_env.target_lo);
        assert!(noisy_env.target_hi > tight_env.target_hi);
        assert!(noisy_env.target_width_fraction() > tight_env.target_width_fraction());
        // A dip that would flag against the tight envelope survives the
        // noisy one: the verdict adapts to the conditions measured.
        let dip = metrics(4_300_000, 10_000_000, 0);
        assert!(detect_enveloped(&tight_env, &dip).throughput_degradation);
        assert!(!detect_enveloped(&noisy_env, &dip).throughput_degradation);
    }

    #[test]
    fn borderline_detection_brackets_the_edges() {
        let base = metrics(10_000_000, 10_000_000, 0);
        let env = Envelope::from_baseline(&base, DEFAULT_THRESHOLD);
        // lo edge is 5e6: within 10 % either side is borderline.
        assert!(env.is_borderline(&metrics(4_600_000, 10_000_000, 0)));
        assert!(env.is_borderline(&metrics(5_400_000, 10_000_000, 0)));
        assert!(!env.is_borderline(&metrics(8_000_000, 10_000_000, 0)));
        // hi edge is 15e6.
        assert!(env.is_borderline(&metrics(14_000_000, 10_000_000, 0)));
        assert!(!env.is_borderline(&metrics(20_000_000, 10_000_000, 0)));
    }

    /// A multi-flow measurement: per-flow bytes plus table readings.
    fn multiflow(flows: Vec<u64>, sockets: usize, leaked_total: usize) -> TestMetrics {
        TestMetrics {
            target_bytes: flows.first().copied().unwrap_or(0),
            competing_bytes: flows.iter().skip(1).sum(),
            server_sockets: sockets,
            leaked_total,
            flow_bytes: flows,
            ..TestMetrics::empty()
        }
    }

    #[test]
    fn jain_index_and_starved_flows_behave() {
        let fair = multiflow(vec![1_000_000; 8], 0, 0);
        assert!((fair.jain_index() - 1.0).abs() < 1e-12);
        assert_eq!(fair.starved_flows(), 0);
        let skewed = multiflow(vec![8_000_000, 0, 0, 0, 0, 0, 0, 0], 0, 0);
        assert!((skewed.jain_index() - 0.125).abs() < 1e-12);
        assert_eq!(skewed.starved_flows(), 7);
        // Degenerate vectors are trivially fair and starve no one.
        assert_eq!(TestMetrics::empty().jain_index(), 1.0);
        assert_eq!(multiflow(vec![0, 0, 0], 0, 0).starved_flows(), 0);
    }

    #[test]
    fn fairness_collapse_detected() {
        let base = multiflow(vec![1_000_000; 8], 0, 0);
        // Aggregate bytes unchanged, but one background flow monopolizes.
        let attacked = multiflow(vec![1_000_000, 7_000_000, 0, 0, 0, 0, 0, 0], 0, 0);
        let v = detect(&base, &attacked, DEFAULT_THRESHOLD);
        assert!(v.fairness_collapse, "{v:?}");
        assert!(v.flow_starvation, "monopolized flows are also starved");
        assert!(!v.throughput_degradation, "target kept its bytes");
        assert!(v.labels().contains(&"fairness-collapse"));
    }

    #[test]
    fn flow_starvation_detected_without_fairness_collapse() {
        let base = multiflow(vec![1_000_000; 8], 0, 0);
        // One flow starved; the rest stay fair, so Jain's barely moves.
        let mut flows = vec![1_000_000; 8];
        flows[7] = 50_000;
        let attacked = multiflow(flows, 0, 0);
        let v = detect(&base, &attacked, DEFAULT_THRESHOLD);
        assert!(v.flow_starvation, "{v:?}");
        assert!(!v.fairness_collapse, "{v:?}");
    }

    #[test]
    fn table_exhaustion_detected_on_both_edges() {
        let base = multiflow(vec![1_000_000; 8], 4, 0);
        // Leak edge: strictly more than baseline + margin.
        let leaky = multiflow(vec![1_000_000; 8], 4, TABLE_LEAK_MARGIN + 1);
        assert!(detect(&base, &leaky, DEFAULT_THRESHOLD).table_exhaustion);
        let within = multiflow(vec![1_000_000; 8], 4, TABLE_LEAK_MARGIN);
        assert!(!detect(&base, &within, DEFAULT_THRESHOLD).table_exhaustion);
        // Occupancy edge: strictly above 2×baseline + margin.
        let crowded = multiflow(vec![1_000_000; 8], 2 * 4 + TABLE_LEAK_MARGIN + 1, 0);
        let v = detect(&base, &crowded, DEFAULT_THRESHOLD);
        assert!(v.table_exhaustion);
        assert_eq!(v.labels(), vec!["table-exhaustion"]);
        let tolerable = multiflow(vec![1_000_000; 8], 2 * 4 + TABLE_LEAK_MARGIN, 0);
        assert!(!detect(&base, &tolerable, DEFAULT_THRESHOLD).table_exhaustion);
    }

    #[test]
    fn cross_flow_metrics_disengage_on_classic_two_flow_runs() {
        // Two-flow metrics (the classic dumbbell) never trip the new flags,
        // however extreme the readings: legacy verdicts stay bit-identical.
        let base = multiflow(vec![10_000_000, 10_000_000], 0, 0);
        let attacked = multiflow(vec![10_000_000, 0], 500, 500);
        let v = detect(&base, &attacked, DEFAULT_THRESHOLD);
        assert!(!v.fairness_collapse);
        assert!(!v.flow_starvation);
        assert!(!v.table_exhaustion);
        let env = Envelope::from_baseline(&base, DEFAULT_THRESHOLD);
        let ve = detect_enveloped(&env, &attacked);
        assert!(!ve.fairness_collapse && !ve.flow_starvation && !ve.table_exhaustion);
    }

    #[test]
    fn single_member_envelope_degenerates_to_detect_for_multiflow() {
        let base = multiflow(vec![1_000_000; 8], 4, 1);
        let env = Envelope::from_baseline(&base, DEFAULT_THRESHOLD);
        for attacked in [
            multiflow(vec![1_000_000; 8], 4, 1),
            multiflow(vec![1_000_000, 7_000_000, 0, 0, 0, 0, 0, 0], 4, 1),
            multiflow(vec![1_000_000; 8], 40, 1),
            multiflow(vec![1_000_000; 8], 4, 20),
            multiflow(vec![500_000; 8], 16, 9),
        ] {
            assert_eq!(
                detect_enveloped(&env, &attacked),
                detect(&base, &attacked, DEFAULT_THRESHOLD),
                "K=1 must reproduce the direct verdict for {attacked:?}"
            );
        }
    }

    #[test]
    fn multiflow_ensemble_members_never_flag_cross_flow() {
        let members = [
            multiflow(vec![1_000_000; 8], 4, 0),
            multiflow(
                vec![
                    900_000, 1_100_000, 80_000, 1_000_000, 950_000, 1_050_000, 1_000_000, 1_000_000,
                ],
                9,
                2,
            ),
            multiflow(
                vec![
                    1_200_000, 800_000, 1_000_000, 1_000_000, 0, 1_000_000, 1_000_000, 1_000_000,
                ],
                6,
                1,
            ),
        ];
        let env = Envelope::from_members(&members, DEFAULT_THRESHOLD);
        assert!(env.cross_flow);
        for m in &members {
            assert!(
                !detect_enveloped(&env, m).flagged(),
                "member {m:?} flagged against its own envelope"
            );
        }
    }

    #[test]
    fn envelope_disables_establishment_when_a_member_failed_to_connect() {
        let members = [
            metrics(10_000_000, 10_000_000, 0),
            metrics(0, 10_000_000, 0),
        ];
        let env = Envelope::from_members(&members, DEFAULT_THRESHOLD);
        assert_eq!(env.target_min, 0);
        let v = detect_enveloped(&env, &metrics(0, 10_000_000, 0));
        assert!(!v.establishment_prevented);
    }
}
