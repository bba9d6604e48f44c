use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{Dir, Label, StateId, StateMachine, StateMachineError};

/// Statistics SNAKE's state tracker collects about one state of one endpoint
/// (paper §V-C): packet types sent/received while in the state, time spent,
/// and visit count. The controller uses these as feedback for strategy
/// generation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateStats {
    /// How many times the endpoint entered this state.
    pub visits: u64,
    /// Total simulated time spent in this state, nanoseconds.
    pub total_time_nanos: u64,
    /// Packets sent while in this state, by packet-type label.
    pub sent: BTreeMap<Label, u64>,
    /// Packets received while in this state, by packet-type label.
    pub recv: BTreeMap<Label, u64>,
}

impl StateStats {
    /// Total number of packets observed (both directions) in this state.
    pub fn packet_count(&self) -> u64 {
        self.sent.values().sum::<u64>() + self.recv.values().sum::<u64>()
    }
}

/// Tracks one endpoint's protocol state by observing the packets it sends
/// and receives, using only the state machine's transition rules — no access
/// to the implementation.
#[derive(Debug, Clone)]
pub struct Tracker {
    machine: Arc<StateMachine>,
    current: StateId,
    entered_at: u64,
    stats: Vec<StateStats>,
    transitions_taken: u64,
}

impl Tracker {
    /// Creates a tracker starting in the named state (clients start in
    /// `CLOSED`, servers in `LISTEN`).
    ///
    /// # Errors
    ///
    /// Returns [`StateMachineError::UnknownState`] if the machine has no
    /// state with that name.
    pub fn new(machine: Arc<StateMachine>, initial: &str) -> Result<Self, StateMachineError> {
        let current = machine.state(initial)?;
        let mut stats = vec![StateStats::default(); machine.state_count()];
        stats[current.index()].visits = 1;
        Ok(Tracker {
            machine,
            current,
            entered_at: 0,
            stats,
            transitions_taken: 0,
        })
    }

    /// The machine this tracker follows.
    pub fn machine(&self) -> &Arc<StateMachine> {
        &self.machine
    }

    /// The inferred current state.
    pub fn current(&self) -> StateId {
        self.current
    }

    /// The inferred current state's name.
    pub fn current_name(&self) -> &str {
        self.machine.state_name(self.current)
    }

    /// The inferred current state's name as a label.
    pub fn current_label(&self) -> Label {
        self.machine.state_label(self.current)
    }

    /// Number of transitions the tracker has followed.
    pub fn transitions_taken(&self) -> u64 {
        self.transitions_taken
    }

    /// Observes one packet event at simulated time `now_nanos` and returns
    /// the (possibly unchanged) state after applying the transition rules.
    ///
    /// The packet is accounted to the state the endpoint was in *when the
    /// packet was observed*; the transition (if any) happens after.
    ///
    /// A new name the process-wide label vocabulary can no longer admit
    /// (see [`Label::intern`]) matches no transition, since every machine's
    /// packet types are in the vocabulary: such a packet is not counted and
    /// leaves the state unchanged.
    pub fn observe(&mut self, dir: Dir, packet_type: &str, now_nanos: u64) -> StateId {
        match Label::intern(packet_type) {
            Ok(label) => self.observe_label(dir, label, now_nanos),
            Err(_) => self.current,
        }
    }

    /// [`Tracker::observe`] for a packet type already in the label
    /// vocabulary. Allocates only the first time a state sees a packet
    /// type in a direction.
    pub(crate) fn observe_label(
        &mut self,
        dir: Dir,
        packet_type: Label,
        now_nanos: u64,
    ) -> StateId {
        let stats = &mut self.stats[self.current.index()];
        let bucket = match dir {
            Dir::Send => &mut stats.sent,
            Dir::Recv => &mut stats.recv,
        };
        *bucket.entry(packet_type).or_insert(0) += 1;

        if let Some(next) = self.machine.step_label(self.current, dir, packet_type) {
            if next != self.current {
                let dwell = now_nanos.saturating_sub(self.entered_at);
                self.stats[self.current.index()].total_time_nanos += dwell;
                self.current = next;
                self.entered_at = now_nanos;
                self.stats[next.index()].visits += 1;
                self.transitions_taken += 1;
            }
        }
        self.current
    }

    /// Closes time accounting at the end of a run.
    pub fn finish(&mut self, now_nanos: u64) {
        let dwell = now_nanos.saturating_sub(self.entered_at);
        self.stats[self.current.index()].total_time_nanos += dwell;
        self.entered_at = now_nanos;
    }

    /// Statistics for a state.
    pub fn stats(&self, state: StateId) -> &StateStats {
        &self.stats[state.index()]
    }

    /// Iterates over `(state name, stats)` for every *visited* state.
    pub fn visited(&self) -> impl Iterator<Item = (&str, &StateStats)> {
        self.machine
            .states()
            .iter()
            .enumerate()
            .filter(|(i, _)| self.stats[*i].visits > 0)
            .map(|(i, n)| (n.as_str(), &self.stats[i]))
    }

    /// Every `(state, packet type, direction)` triple observed, with
    /// counts — the feedback that seeds SNAKE's strategy generation.
    pub fn observed_pairs(&self) -> Vec<(Label, Label, Dir, u64)> {
        let mut out = Vec::new();
        for (i, stats) in self.stats.iter().enumerate() {
            let state = self.machine.state_label(StateId(i));
            out.extend(stats.sent.iter().map(|(&ty, &n)| (state, ty, Dir::Send, n)));
            out.extend(stats.recv.iter().map(|(&ty, &n)| (state, ty, Dir::Recv, n)));
        }
        out
    }
}

/// Tracks both endpoints of a two-party connection from a single packet
/// stream: a packet from the client is a `Send` for the client tracker and a
/// `Recv` for the server tracker.
#[derive(Debug, Clone)]
pub struct PairTracker {
    client: Tracker,
    server: Tracker,
}

impl PairTracker {
    /// Creates a pair of trackers over the same machine; by convention the
    /// client starts in `client_initial` (for example `CLOSED`) and the
    /// server in `server_initial` (for example `LISTEN`).
    ///
    /// # Errors
    ///
    /// Returns [`StateMachineError::UnknownState`] if either initial state
    /// does not exist.
    pub fn new(
        machine: Arc<StateMachine>,
        client_initial: &str,
        server_initial: &str,
    ) -> Result<Self, StateMachineError> {
        Ok(PairTracker {
            client: Tracker::new(Arc::clone(&machine), client_initial)?,
            server: Tracker::new(machine, server_initial)?,
        })
    }

    /// Observes one packet crossing the proxy.
    ///
    /// `from_client` is true for packets travelling client → server.
    ///
    /// A packet type the label vocabulary can no longer admit is skipped,
    /// as in [`Tracker::observe`].
    pub fn observe_packet(&mut self, from_client: bool, packet_type: &str, now_nanos: u64) {
        if let Ok(label) = Label::intern(packet_type) {
            self.observe_packet_label(from_client, label, now_nanos);
        }
    }

    /// [`PairTracker::observe_packet`] for a packet type already in the
    /// label vocabulary — the proxy's per-packet path.
    pub fn observe_packet_label(&mut self, from_client: bool, packet_type: Label, now_nanos: u64) {
        let (sender, receiver) = if from_client {
            (&mut self.client, &mut self.server)
        } else {
            (&mut self.server, &mut self.client)
        };
        sender.observe_label(Dir::Send, packet_type, now_nanos);
        receiver.observe_label(Dir::Recv, packet_type, now_nanos);
    }

    /// Closes time accounting on both trackers.
    pub fn finish(&mut self, now_nanos: u64) {
        self.client.finish(now_nanos);
        self.server.finish(now_nanos);
    }

    /// The client-side tracker.
    pub fn client(&self) -> &Tracker {
        &self.client
    }

    /// The server-side tracker.
    pub fn server(&self) -> &Tracker {
        &self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tcp_state_machine, Dir};

    #[test]
    fn tracker_follows_tcp_handshake() {
        let m = tcp_state_machine();
        let mut t = Tracker::new(m, "CLOSED").unwrap();
        assert_eq!(t.current_name(), "CLOSED");
        t.observe(Dir::Send, "SYN", 0);
        assert_eq!(t.current_name(), "SYN_SENT");
        t.observe(Dir::Recv, "SYN+ACK", 10);
        assert_eq!(t.current_name(), "ESTABLISHED");
        t.observe(Dir::Send, "ACK", 20);
        assert_eq!(
            t.current_name(),
            "ESTABLISHED",
            "pure ACK send is a self-loop"
        );
        assert_eq!(t.transitions_taken(), 2);
    }

    #[test]
    fn packets_accounted_to_state_at_observation() {
        let m = tcp_state_machine();
        let mut t = Tracker::new(m.clone(), "CLOSED").unwrap();
        t.observe(Dir::Send, "SYN", 0);
        // The SYN was observed while still in CLOSED.
        let closed = m.state("CLOSED").unwrap();
        assert_eq!(t.stats(closed).sent.get(&Label::seeded("SYN")), Some(&1));
        let syn_sent = m.state("SYN_SENT").unwrap();
        assert_eq!(t.stats(syn_sent).visits, 1);
    }

    #[test]
    fn time_accounting_accumulates_dwell() {
        let m = tcp_state_machine();
        let mut t = Tracker::new(m.clone(), "CLOSED").unwrap();
        t.observe(Dir::Send, "SYN", 1_000);
        t.observe(Dir::Recv, "SYN+ACK", 5_000);
        t.finish(11_000);
        let closed = m.state("CLOSED").unwrap();
        let syn_sent = m.state("SYN_SENT").unwrap();
        let est = m.state("ESTABLISHED").unwrap();
        assert_eq!(t.stats(closed).total_time_nanos, 1_000);
        assert_eq!(t.stats(syn_sent).total_time_nanos, 4_000);
        assert_eq!(t.stats(est).total_time_nanos, 6_000);
    }

    #[test]
    fn revisits_increment_visit_count() {
        let m = tcp_state_machine();
        let mut t = Tracker::new(m.clone(), "CLOSED").unwrap();
        t.observe(Dir::Send, "SYN", 0);
        t.observe(Dir::Recv, "RST", 1);
        assert_eq!(t.current_name(), "CLOSED");
        t.observe(Dir::Send, "SYN", 2);
        assert_eq!(t.current_name(), "SYN_SENT");
        let closed = m.state("CLOSED").unwrap();
        assert_eq!(t.stats(closed).visits, 2);
    }

    #[test]
    fn pair_tracker_tracks_both_sides() {
        let m = tcp_state_machine();
        let mut p = PairTracker::new(m, "CLOSED", "LISTEN").unwrap();
        p.observe_packet(true, "SYN", 0);
        assert_eq!(p.client().current_name(), "SYN_SENT");
        assert_eq!(p.server().current_name(), "SYN_RECEIVED");
        p.observe_packet(false, "SYN+ACK", 10);
        assert_eq!(p.client().current_name(), "ESTABLISHED");
        p.observe_packet(true, "ACK", 20);
        assert_eq!(p.server().current_name(), "ESTABLISHED");
    }

    #[test]
    fn observed_pairs_reports_feedback() {
        let m = tcp_state_machine();
        let mut t = Tracker::new(m, "CLOSED").unwrap();
        t.observe(Dir::Send, "SYN", 0);
        t.observe(Dir::Recv, "SYN+ACK", 1);
        let pairs = t.observed_pairs();
        assert!(pairs
            .iter()
            .any(|(s, ty, d, n)| s == "CLOSED" && ty == "SYN" && *d == Dir::Send && *n == 1));
        assert!(pairs
            .iter()
            .any(|(s, ty, d, _)| s == "SYN_SENT" && ty == "SYN+ACK" && *d == Dir::Recv));
    }

    #[test]
    fn visited_skips_untouched_states() {
        let m = tcp_state_machine();
        let mut t = Tracker::new(m, "CLOSED").unwrap();
        t.observe(Dir::Send, "SYN", 0);
        let visited: Vec<&str> = t.visited().map(|(n, _)| n).collect();
        assert!(visited.contains(&"CLOSED"));
        assert!(visited.contains(&"SYN_SENT"));
        assert!(!visited.contains(&"CLOSE_WAIT"));
    }

    #[test]
    fn unknown_initial_state_rejected() {
        let m = tcp_state_machine();
        assert!(Tracker::new(m, "NOPE").is_err());
    }
}
