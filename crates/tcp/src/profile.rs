use snake_netsim::SimDuration;

/// How a stack reacts to a segment whose flag combination no correct
/// implementation would send (paper §VI-A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvalidFlagPolicy {
    /// Attempt to interpret the packet anyway: the ACK field is processed,
    /// an in-window SYN resets, a FIN closes, and a packet with *no* flags
    /// at all is answered with a duplicate acknowledgment. Observed on
    /// Linux 3.0.0 (and modelled for Windows 95).
    BestEffort,
    /// Silently ignore the whole segment. Observed on Linux 3.13, which
    /// fixed the 3.0.0 behaviour.
    Ignore,
    /// Process the RST flag regardless of what else is set; ignore every
    /// other nonsensical combination. Observed on Windows 8.1.
    RstAlwaysWins,
}

/// How a stack tears down when the local application exits abruptly in the
/// middle of a transfer (a killed `wget`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortStyle {
    /// Send a FIN, then answer any further data with RSTs (valid per RFC
    /// 793 since the data can never be delivered). Linux behaviour; the
    /// precondition of the CLOSE_WAIT resource-exhaustion attack.
    FinThenRst,
    /// Send a single RST immediately and forget the connection. Windows
    /// behaviour.
    RstOnly,
}

/// Behavioural parameters of one TCP implementation — the reproduction's
/// equivalent of booting a different OS image in the paper's testbed.
///
/// Profiles only encode behaviours documented in the paper or the stacks'
/// public defaults; everything else is shared RFC-conformant engine code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Display name, as it appears in the paper's tables.
    pub name: String,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Retransmissions of the same data before the connection is
    /// force-closed (Linux `tcp_retries2` = 15; Windows
    /// `TcpMaxDataRetransmissions` = 5).
    pub max_data_retries: u32,
    /// Lower bound for the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound for the retransmission timeout.
    pub max_rto: SimDuration,
    /// Congestion-window growth counts every arriving ACK, without checking
    /// for duplicates or how much data is outstanding — the naïve behaviour
    /// Savage et al. exploited, present in Windows 95 (paper §VI-A.3).
    pub naive_ack_counting: bool,
    /// The stack's duplicate-ACK rate limiter treats a burst of duplicates
    /// as severe loss and collapses the window to two segments instead of
    /// entering standard inflation-based recovery. The Windows 8.1
    /// behaviour behind the Duplicate-Acknowledgment-Rate-Limiting attack
    /// (paper §VI-A.6: a 5× throughput drop against the competing flow).
    pub harsh_dupack_response: bool,
    /// Handling of invalid flag combinations.
    pub invalid_flags: InvalidFlagPolicy,
    /// Teardown behaviour when the application aborts.
    pub abort_style: AbortStyle,
    /// The receiver tags acknowledgments generated for fully-duplicate old
    /// segments with a DSACK marker (RFC 2883), which senders then exclude
    /// from duplicate-ACK loss counting. Linux does this; the Windows
    /// profiles do not, which is what makes Windows 8.1 vulnerable to the
    /// Duplicate-Acknowledgment-Rate-Limiting attack (paper §VI-A.6): its
    /// unmarked duplicate ACKs count as loss indications and every
    /// duplicated PSH+ACK burst halves the sender's window for real.
    ///
    /// On this reproduction's fixed 20-byte header the DSACK option is
    /// carried in the (otherwise unused) `urgent_ptr` field with URG clear;
    /// see DESIGN.md.
    pub dsack: bool,
    /// The sender counts a duplicate ACK as a loss indication only when it
    /// carries SACK evidence of a genuine reception hole (RFC 6675's rule
    /// that a duplicate must report new SACK information). Linux enforces
    /// this, which is what makes it immune to blind acknowledgment
    /// duplication; the Windows profiles count any duplicate.
    pub sack_loss_evidence: bool,
    /// SACK-style loss recovery: during fast recovery, each arriving ack
    /// clocks out a retransmission of the next unacknowledged segment below
    /// the recovery point, so a multi-segment loss burst heals in roughly
    /// one RTT. Linux and Windows 8.1 negotiate SACK; Windows 95 is plain
    /// New Reno and recovers one segment per round trip.
    pub sack_recovery: bool,
    /// SYN (and SYN+ACK) retransmission limit before giving up on
    /// connection establishment.
    pub syn_retries: u32,
    /// How long a socket lingers in TIME_WAIT (2·MSL).
    pub time_wait: SimDuration,
    /// How long after learning the peer closed the server application
    /// takes to close its side (the `close()` an HTTP server issues once
    /// the response is abandoned).
    pub app_close_delay: SimDuration,
}

impl Profile {
    /// Linux kernel 3.0.0.
    pub fn linux_3_0_0() -> Profile {
        Profile {
            name: "Linux 3.0.0".to_owned(),
            initial_cwnd_segments: 10,
            max_data_retries: 15,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(120),
            naive_ack_counting: false,
            harsh_dupack_response: false,
            invalid_flags: InvalidFlagPolicy::BestEffort,
            abort_style: AbortStyle::FinThenRst,
            dsack: true,
            sack_loss_evidence: true,
            sack_recovery: true,
            syn_retries: 5,
            time_wait: SimDuration::from_secs(60),
            app_close_delay: SimDuration::from_millis(200),
        }
    }

    /// Linux kernel 3.13.
    pub fn linux_3_13() -> Profile {
        Profile {
            name: "Linux 3.13".to_owned(),
            invalid_flags: InvalidFlagPolicy::Ignore,
            ..Profile::linux_3_0_0()
        }
    }

    /// Windows 8.1.
    pub fn windows_8_1() -> Profile {
        Profile {
            name: "Windows 8.1".to_owned(),
            initial_cwnd_segments: 4,
            max_data_retries: 5,
            min_rto: SimDuration::from_millis(300),
            max_rto: SimDuration::from_secs(60),
            naive_ack_counting: false,
            harsh_dupack_response: true,
            invalid_flags: InvalidFlagPolicy::RstAlwaysWins,
            abort_style: AbortStyle::RstOnly,
            dsack: false,
            sack_loss_evidence: false,
            sack_recovery: true,
            syn_retries: 5,
            time_wait: SimDuration::from_secs(60),
            app_close_delay: SimDuration::from_millis(200),
        }
    }

    /// Windows 95.
    pub fn windows_95() -> Profile {
        Profile {
            name: "Windows 95".to_owned(),
            initial_cwnd_segments: 2,
            max_data_retries: 5,
            min_rto: SimDuration::from_millis(500),
            max_rto: SimDuration::from_secs(60),
            naive_ack_counting: true,
            harsh_dupack_response: false,
            invalid_flags: InvalidFlagPolicy::BestEffort,
            abort_style: AbortStyle::RstOnly,
            dsack: false,
            sack_loss_evidence: false,
            sack_recovery: false,
            syn_retries: 5,
            time_wait: SimDuration::from_secs(60),
            app_close_delay: SimDuration::from_millis(200),
        }
    }

    /// All four implementations tested in the paper, in Table I order.
    pub fn all() -> Vec<Profile> {
        vec![
            Profile::linux_3_0_0(),
            Profile::linux_3_13(),
            Profile::windows_8_1(),
            Profile::windows_95(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_encode_paper_documented_quirks() {
        assert_eq!(
            Profile::linux_3_0_0().invalid_flags,
            InvalidFlagPolicy::BestEffort
        );
        assert_eq!(
            Profile::linux_3_13().invalid_flags,
            InvalidFlagPolicy::Ignore
        );
        assert_eq!(
            Profile::windows_8_1().invalid_flags,
            InvalidFlagPolicy::RstAlwaysWins
        );
        assert!(Profile::windows_95().naive_ack_counting);
        assert!(!Profile::linux_3_13().naive_ack_counting);
        assert!(!Profile::windows_8_1().dsack);
        assert!(Profile::linux_3_0_0().dsack);
        assert_eq!(Profile::linux_3_0_0().abort_style, AbortStyle::FinThenRst);
        assert_eq!(Profile::windows_8_1().abort_style, AbortStyle::RstOnly);
    }

    #[test]
    fn linux_retries_exceed_windows() {
        assert_eq!(Profile::linux_3_13().max_data_retries, 15);
        assert_eq!(Profile::windows_8_1().max_data_retries, 5);
    }

    #[test]
    fn all_lists_four_implementations() {
        let names: Vec<String> = Profile::all().into_iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["Linux 3.0.0", "Linux 3.13", "Windows 8.1", "Windows 95"]
        );
    }
}
