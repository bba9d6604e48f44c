use std::error::Error;
use std::fmt;

/// Errors from parsing or using a protocol state machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateMachineError {
    /// The dot text could not be parsed.
    ParseError {
        /// Line number (1-based).
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A state name was referenced that is not part of the machine.
    UnknownState {
        /// The offending state name.
        name: String,
    },
    /// The machine has no states.
    EmptyMachine,
    /// A transition label was malformed (expected `send:TYPE` / `recv:TYPE`).
    BadLabel {
        /// The offending label.
        label: String,
    },
    /// A new state or packet-type name arrived after the process had
    /// admitted its bound of names outside the seeded vocabulary.
    VocabularyFull {
        /// How many names the process admits.
        bound: usize,
    },
}

impl fmt::Display for StateMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateMachineError::ParseError { line, reason } => {
                write!(f, "state machine parse error on line {line}: {reason}")
            }
            StateMachineError::UnknownState { name } => write!(f, "unknown state `{name}`"),
            StateMachineError::EmptyMachine => write!(f, "state machine has no states"),
            StateMachineError::BadLabel { label } => {
                write!(
                    f,
                    "bad transition label `{label}`: expected `send:TYPE` or `recv:TYPE`"
                )
            }
            StateMachineError::VocabularyFull { bound } => write!(
                f,
                "label vocabulary is full: {bound} names beyond the built-in ones already admitted"
            ),
        }
    }
}

impl Error for StateMachineError {}
