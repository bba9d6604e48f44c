//! Protocol state machine descriptions and packet-driven state tracking.
//!
//! SNAKE's search-space reduction (paper §IV-B) rests on knowing which
//! protocol state each endpoint is in *without instrumenting the
//! implementation*. The user supplies the protocol's connection-lifecycle
//! state machine in the dot graph language; at run time a tracker watches the
//! packets crossing the attack proxy and replays them against the machine's
//! transition rules to infer the current state of both the client and the
//! server.
//!
//! The tracker also records per-state statistics — which packet types were
//! observed, how many, how long the endpoint stayed in the state, and how
//! often it was visited — which the controller uses as feedback when
//! generating `(state, packet type)` attack strategies.
//!
//! Built-in machines are provided for TCP (RFC 793's 11-state diagram) and
//! DCCP (RFC 4340 §8), the protocols evaluated in the paper.
//!
//! State and packet-type names travel as [`Label`]s: two-byte handles into
//! one process-wide vocabulary, seeded with the built-in names and bounded
//! by [`LABEL_BOUND`] for any others.
//!
//! # Examples
//!
//! ```
//! use snake_statemachine::{StateMachine, Tracker, Dir, tcp_state_machine};
//!
//! let machine = tcp_state_machine();
//! let mut client = Tracker::new(machine.clone(), "CLOSED")?;
//! client.observe(Dir::Send, "SYN", 0);
//! assert_eq!(client.current_name(), "SYN_SENT");
//! client.observe(Dir::Recv, "SYN+ACK", 1_000_000);
//! assert_eq!(client.current_name(), "ESTABLISHED");
//! # Ok::<(), snake_statemachine::StateMachineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod builtin;
mod dot;
mod error;
mod infer;
mod label;
mod machine;
mod tracker;

pub use builtin::{dccp_state_machine, tcp_state_machine, DCCP_DOT, TCP_DOT};
pub use dot::parse_dot;
pub use error::StateMachineError;
pub use infer::{infer_machine, InferenceConfig};
pub use label::{Label, LABEL_BOUND};
pub use machine::{Dir, Event, StateId, StateMachine, Transition};
pub use tracker::{PairTracker, StateStats, Tracker};
