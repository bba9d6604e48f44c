use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::{Label, StateMachineError};

/// Index of a state within its [`StateMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub(crate) usize);

impl StateId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Direction of an observed packet relative to the tracked endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// The endpoint sent the packet.
    Send,
    /// The endpoint received the packet.
    Recv,
}

impl Dir {
    /// The direction's name as journals spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::Send => "send",
            Dir::Recv => "recv",
        }
    }

    /// The opposite direction (a send for one endpoint is a receive for the
    /// peer).
    pub fn flip(self) -> Dir {
        match self {
            Dir::Send => Dir::Recv,
            Dir::Recv => Dir::Send,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A packet event that can trigger a transition: a packet of a named type
/// sent or received by the endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Event {
    /// Direction relative to the endpoint.
    pub dir: Dir,
    /// Packet-type label (for example `"SYN+ACK"` or `"REQUEST"`).
    pub packet_type: String,
}

impl Event {
    /// Convenience constructor.
    pub fn new(dir: Dir, packet_type: impl Into<String>) -> Self {
        Event {
            dir,
            packet_type: packet_type.into(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.dir, self.packet_type)
    }
}

/// A transition rule: in `from`, on `event`, move to `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Origin state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// Triggering event.
    pub event: Event,
}

/// A protocol connection-lifecycle state machine.
///
/// States are identified by name (as written in the dot description);
/// transitions fire on packet send/receive events. Events with no matching
/// transition leave the state unchanged — RFC state diagrams only draw the
/// state-changing packets, and everything else (data flow in ESTABLISHED,
/// say) is an implicit self-loop.
#[derive(Debug, Clone)]
pub struct StateMachine {
    name: String,
    states: Vec<String>,
    /// Each state's name in the label vocabulary, by state index.
    labels: Vec<Label>,
    by_name: HashMap<String, StateId>,
    transitions: Vec<Transition>,
    /// Per-state, per-direction transition index: `step_table[state][dir]`
    /// lists `(packet type, destination)`. Stepping runs for every
    /// tracker on every proxied packet, so it must not scan `transitions`;
    /// a state has a handful of outgoing edges per direction, which a
    /// linear scan of two-byte labels resolves faster than any hashing.
    step_table: Vec<[Vec<(Label, StateId)>; 2]>,
}

impl StateMachine {
    /// Builds a machine from state names and transitions expressed by name.
    ///
    /// States are created on first mention, in mention order.
    ///
    /// # Errors
    ///
    /// Returns [`StateMachineError::EmptyMachine`] if no transitions are
    /// given, and [`StateMachineError::VocabularyFull`] if a state or
    /// packet-type name cannot join the label vocabulary. The vocabulary
    /// is shared by the whole process and admits at most
    /// [`LABEL_BOUND`](crate::LABEL_BOUND) names beyond the built-in TCP
    /// and DCCP ones (decoded journals included), so a machine with new
    /// names can fail to build once earlier input has filled it.
    pub fn new(
        name: impl Into<String>,
        edges: Vec<(String, String, Event)>,
    ) -> Result<Arc<Self>, StateMachineError> {
        if edges.is_empty() {
            return Err(StateMachineError::EmptyMachine);
        }
        let mut states = Vec::new();
        let mut by_name = HashMap::new();
        let intern = |n: &str, states: &mut Vec<String>, by_name: &mut HashMap<String, StateId>| {
            if let Some(&id) = by_name.get(n) {
                id
            } else {
                let id = StateId(states.len());
                states.push(n.to_owned());
                by_name.insert(n.to_owned(), id);
                id
            }
        };
        let mut transitions = Vec::with_capacity(edges.len());
        for (from, to, event) in edges {
            let f = intern(&from, &mut states, &mut by_name);
            let t = intern(&to, &mut states, &mut by_name);
            transitions.push(Transition {
                from: f,
                to: t,
                event,
            });
        }
        let labels = states
            .iter()
            .map(|s| Label::intern(s))
            .collect::<Result<Vec<_>, _>>()?;
        let mut step_table: Vec<[Vec<(Label, StateId)>; 2]> =
            states.iter().map(|_| [Vec::new(), Vec::new()]).collect();
        for t in &transitions {
            if is_sentinel(&t.event) {
                continue;
            }
            // Declaration order, so the first matching transition wins.
            let label = Label::intern(&t.event.packet_type)?;
            step_table[t.from.0][t.event.dir as usize].push((label, t.to));
        }
        Ok(Arc::new(StateMachine {
            name: name.into(),
            states,
            labels,
            by_name,
            transitions,
            step_table,
        }))
    }

    /// The machine's name (the dot `digraph` name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All state names, in declaration order.
    pub fn states(&self) -> &[String] {
        &self.states
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// All transition rules.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Looks up a state by name.
    ///
    /// # Errors
    ///
    /// Returns [`StateMachineError::UnknownState`] if absent.
    pub fn state(&self, name: &str) -> Result<StateId, StateMachineError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StateMachineError::UnknownState {
                name: name.to_owned(),
            })
    }

    /// The name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this machine.
    pub fn state_name(&self, id: StateId) -> &str {
        &self.states[id.0]
    }

    /// The name of a state as a label.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this machine.
    pub(crate) fn state_label(&self, id: StateId) -> Label {
        self.labels[id.0]
    }

    /// Finds the destination of the first transition out of `from` matching
    /// the event, or `None` (implicit self-loop).
    ///
    /// Every packet type in the machine's transitions is in the label
    /// vocabulary, so a name [`Label::lookup`] does not know matches none.
    pub fn step(&self, from: StateId, dir: Dir, packet_type: &str) -> Option<StateId> {
        Label::lookup(packet_type).and_then(|label| self.step_label(from, dir, label))
    }

    /// [`StateMachine::step`] for a packet type already in the label
    /// vocabulary — the tracker's per-packet path.
    pub(crate) fn step_label(
        &self,
        from: StateId,
        dir: Dir,
        packet_type: Label,
    ) -> Option<StateId> {
        self.step_table[from.0][dir as usize]
            .iter()
            .find(|(label, _)| *label == packet_type)
            .map(|&(_, to)| to)
    }

    /// Renders the machine back to dot, suitable for graphviz. Internal
    /// state-interning sentinel edges (never-matching events) are omitted.
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph {} {{\n", self.name);
        for t in &self.transitions {
            if is_sentinel(&t.event) {
                continue;
            }
            out.push_str(&format!(
                "    {} -> {} [label=\"{}\"];\n",
                self.states[t.from.0], self.states[t.to.0], t.event
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Whether `event` is a state-interning sentinel: a never-matching
/// pseudo event the dot parser and inference use to declare a state.
fn is_sentinel(event: &Event) -> bool {
    event.packet_type.starts_with('\u{0}')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Arc<StateMachine> {
        StateMachine::new(
            "toy",
            vec![
                ("A".into(), "B".into(), Event::new(Dir::Send, "X")),
                ("B".into(), "C".into(), Event::new(Dir::Recv, "Y")),
                ("B".into(), "A".into(), Event::new(Dir::Recv, "X")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn states_interned_in_mention_order() {
        let m = toy();
        assert_eq!(m.states(), &["A", "B", "C"]);
        assert_eq!(m.state("A").unwrap().index(), 0);
        assert_eq!(m.state("C").unwrap().index(), 2);
    }

    #[test]
    fn step_follows_matching_transition() {
        let m = toy();
        let a = m.state("A").unwrap();
        let b = m.state("B").unwrap();
        assert_eq!(m.step(a, Dir::Send, "X"), Some(b));
        assert_eq!(m.step(b, Dir::Recv, "Y"), Some(m.state("C").unwrap()));
    }

    #[test]
    fn step_without_match_is_none() {
        let m = toy();
        let a = m.state("A").unwrap();
        assert_eq!(m.step(a, Dir::Recv, "X"), None, "direction must match");
        assert_eq!(m.step(a, Dir::Send, "Z"), None, "type must match");
    }

    #[test]
    fn unknown_state_error() {
        let m = toy();
        assert!(matches!(
            m.state("Q"),
            Err(StateMachineError::UnknownState { .. })
        ));
    }

    #[test]
    fn empty_machine_rejected() {
        assert!(matches!(
            StateMachine::new("e", vec![]),
            Err(StateMachineError::EmptyMachine)
        ));
    }

    #[test]
    fn to_dot_roundtrips_through_parser() {
        let m = toy();
        let reparsed = crate::parse_dot(&m.to_dot()).unwrap();
        assert_eq!(reparsed.name(), "toy");
        assert_eq!(reparsed.state_count(), 3);
        assert_eq!(reparsed.transitions().len(), 3);
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::Send.flip(), Dir::Recv);
        assert_eq!(Dir::Recv.flip(), Dir::Send);
    }
}
