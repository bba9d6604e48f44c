use snake_packet::FieldMutation;

/// Which endpoint of the target connection a strategy element refers to.
/// Ordered as the names sort: client before server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// The client (the proxied host — in the paper's topology, client 1).
    Client,
    /// The server the proxied client talks to.
    Server,
}

impl Endpoint {
    /// The other endpoint.
    pub fn peer(self) -> Endpoint {
        match self {
            Endpoint::Client => Endpoint::Server,
            Endpoint::Server => Endpoint::Client,
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Client => f.write_str("client"),
            Endpoint::Server => f.write_str("server"),
        }
    }
}

/// The packet-level basic attacks of paper §IV-C, applied to packets of one
/// type observed while their sender is in one state.
#[derive(Debug, Clone, PartialEq)]
pub enum BasicAttack {
    /// Drop the packet with the given probability (percent).
    Drop {
        /// Drop probability in percent (1–100).
        percent: u8,
    },
    /// Forward the packet plus `copies` duplicates.
    Duplicate {
        /// Number of extra copies to inject.
        copies: u32,
    },
    /// Forward the packet after an extra delay.
    Delay {
        /// Delay in seconds.
        secs: f64,
    },
    /// Buffer matching packets and release them together every `secs`
    /// (the Shrew/Induced-Shrew building block).
    Batch {
        /// Batching interval in seconds.
        secs: f64,
    },
    /// Send the packet back to its originating host (with addresses and
    /// ports swapped so the victim processes it).
    Reflect,
    /// Modify one header field before forwarding.
    Lie {
        /// Field name from the protocol's header spec.
        field: String,
        /// The mutation to apply.
        mutation: FieldMutation,
    },
}

impl BasicAttack {
    /// A short stable label for reports.
    pub fn label(&self) -> String {
        match self {
            BasicAttack::Drop { percent } => format!("drop={percent}%"),
            BasicAttack::Duplicate { copies } => format!("dup={copies}"),
            BasicAttack::Delay { secs } => format!("delay={secs}s"),
            BasicAttack::Batch { secs } => format!("batch={secs}s"),
            BasicAttack::Reflect => "reflect".to_owned(),
            BasicAttack::Lie { field, mutation } => format!("lie:{field}:{mutation}"),
        }
    }
}

/// How the sequence field of an injected packet is chosen. Off-path
/// attackers do not know the connection's sequence numbers, so the choices
/// are blind (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeqChoice {
    /// Zero.
    Zero,
    /// A uniformly random value.
    Random,
    /// The field's maximum value.
    Max,
}

impl std::fmt::Display for SeqChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqChoice::Zero => f.write_str("0"),
            SeqChoice::Random => f.write_str("rand"),
            SeqChoice::Max => f.write_str("max"),
        }
    }
}

/// Which way an injected packet travels (it is spoofed to look like it came
/// from the opposite endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectDirection {
    /// Toward the client, spoofed as the server.
    ToClient,
    /// Toward the server, spoofed as the client.
    ToServer,
}

impl std::fmt::Display for InjectDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectDirection::ToClient => f.write_str("->client"),
            InjectDirection::ToServer => f.write_str("->server"),
        }
    }
}

/// The off-path attacks of paper §IV-C: spoofed packet injection.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionAttack {
    /// Inject a single spoofed packet (repeated a few times for loss
    /// robustness) when the tracked endpoint enters the strategy's state.
    Inject {
        /// Packet-type label to fabricate (for example `"RST"` or
        /// `"REQUEST"`).
        packet_type: String,
        /// Sequence-field choice.
        seq: SeqChoice,
        /// Direction of travel.
        direction: InjectDirection,
        /// Number of copies, spaced 10 ms apart.
        repeat: u32,
    },
    /// Inject a whole series of packets with sequence numbers spanning the
    /// sequence space at window-sized strides — the brute-force building
    /// block behind the Reset and SYN-Reset attacks.
    HitSeqWindow {
        /// Packet-type label to fabricate.
        packet_type: String,
        /// Direction of travel.
        direction: InjectDirection,
        /// Stride between consecutive sequence numbers (the assumed
        /// receive-window size).
        stride: u64,
        /// Total packets to inject.
        count: u64,
        /// Injection rate, packets per second.
        rate_pps: u64,
        /// Inert variant used by the false-positive check: same volume and
        /// pacing, but aimed at a dead port so it can have no protocol
        /// effect (automates the paper's manual pcap inspection, §VI-A).
        inert: bool,
    },
}

impl InjectionAttack {
    /// A short stable label for reports.
    pub fn label(&self) -> String {
        match self {
            InjectionAttack::Inject {
                packet_type,
                seq,
                direction,
                repeat,
            } => {
                format!("inject:{packet_type}:seq={seq}{direction}x{repeat}")
            }
            InjectionAttack::HitSeqWindow {
                packet_type,
                direction,
                stride,
                count,
                inert,
                ..
            } => {
                let tag = if *inert { ":inert" } else { "" };
                format!("hitseqwindow:{packet_type}{direction}:stride={stride}:n={count}{tag}")
            }
        }
    }
}

/// When and what the proxy attacks.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyKind {
    /// Apply a basic attack to every packet of `packet_type` sent by
    /// `endpoint` while the tracker says that endpoint is in `state` —
    /// SNAKE's protocol-state-aware injection.
    OnPacket {
        /// Whose packets to attack.
        endpoint: Endpoint,
        /// The sender's tracked state.
        state: String,
        /// Packet-type label.
        packet_type: String,
        /// The basic attack to apply.
        attack: BasicAttack,
    },
    /// Launch an injection when `endpoint` is first tracked in `state`.
    OnState {
        /// Whose state machine triggers the injection.
        endpoint: Endpoint,
        /// The tracked state that triggers it.
        state: String,
        /// The injection to launch.
        attack: InjectionAttack,
    },
    /// Baseline model (§IV-B, *send-packet-based attack injection*): apply
    /// a basic attack to exactly the `n`-th packet `endpoint` sends,
    /// counting from 1, regardless of protocol state. Implemented so the
    /// search-space comparison can be run empirically, not just costed.
    OnNthPacket {
        /// Whose packets are counted.
        endpoint: Endpoint,
        /// Which single packet (1-based) to attack.
        n: u64,
        /// The basic attack to apply to that packet.
        attack: BasicAttack,
    },
    /// Baseline model (§IV-B, *time-interval-based attack injection*):
    /// launch an injection at a fixed offset from emulation start,
    /// regardless of protocol state.
    AtTime {
        /// Seconds from simulation start.
        at_secs: f64,
        /// The injection to launch.
        attack: InjectionAttack,
    },
}

/// One attack strategy: the unit SNAKE's controller generates and an
/// executor tests in a fresh scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// Stable identifier assigned by the controller.
    pub id: u64,
    /// What to do and when.
    pub kind: StrategyKind,
}

impl Strategy {
    /// A human-readable one-line description.
    pub fn describe(&self) -> String {
        match &self.kind {
            StrategyKind::OnPacket {
                endpoint,
                state,
                packet_type,
                attack,
            } => {
                format!(
                    "[{}] {endpoint}@{state}/{packet_type}: {}",
                    self.id,
                    attack.label()
                )
            }
            StrategyKind::OnState {
                endpoint,
                state,
                attack,
            } => {
                format!("[{}] {endpoint}@{state}: {}", self.id, attack.label())
            }
            StrategyKind::OnNthPacket {
                endpoint,
                n,
                attack,
            } => {
                format!("[{}] {endpoint}#pkt{}: {}", self.id, n, attack.label())
            }
            StrategyKind::AtTime { at_secs, attack } => {
                format!("[{}] t={at_secs}s: {}", self.id, attack.label())
            }
        }
    }

    /// Whether this strategy only injects traffic (models a third-party,
    /// off-path attacker).
    pub fn is_off_path(&self) -> bool {
        matches!(
            self.kind,
            StrategyKind::OnState { .. } | StrategyKind::AtTime { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(BasicAttack::Drop { percent: 50 }.label(), "drop=50%");
        assert_eq!(BasicAttack::Duplicate { copies: 10 }.label(), "dup=10");
        assert_eq!(
            BasicAttack::Lie {
                field: "window".into(),
                mutation: FieldMutation::Max
            }
            .label(),
            "lie:window:max"
        );
        let h = InjectionAttack::HitSeqWindow {
            packet_type: "RST".into(),
            direction: InjectDirection::ToClient,
            stride: 65_535,
            count: 65_537,
            rate_pps: 8_000,
            inert: false,
        };
        assert!(h.label().contains("hitseqwindow:RST"));
    }

    #[test]
    fn describe_includes_state_and_type() {
        let s = Strategy {
            id: 7,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Duplicate { copies: 2 },
            },
        };
        let d = s.describe();
        assert!(d.contains("ESTABLISHED"));
        assert!(d.contains("ACK"));
        assert!(d.contains("dup=2"));
        assert!(!s.is_off_path());
    }

    #[test]
    fn injections_are_off_path() {
        let s = Strategy {
            id: 1,
            kind: StrategyKind::OnState {
                endpoint: Endpoint::Client,
                state: "REQUEST".into(),
                attack: InjectionAttack::Inject {
                    packet_type: "SYNC".into(),
                    seq: SeqChoice::Random,
                    direction: InjectDirection::ToClient,
                    repeat: 3,
                },
            },
        };
        assert!(s.is_off_path());
    }

    #[test]
    fn endpoint_peer() {
        assert_eq!(Endpoint::Client.peer(), Endpoint::Server);
        assert_eq!(Endpoint::Server.peer(), Endpoint::Client);
    }
}
