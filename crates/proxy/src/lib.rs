//! The SNAKE attack proxy.
//!
//! The proxy is spliced into the target client's access link (the paper's
//! modified NS-3 tap-bridge, §V-B) and does three jobs:
//!
//! 1. **State tracking** — a [`PairTracker`](snake_statemachine::PairTracker)
//!    replays every observed packet against the user-supplied protocol
//!    state machine to infer which state each endpoint is in, and collects
//!    per-state statistics the controller uses as feedback.
//! 2. **Basic attacks** — when the active [`Strategy`] matches the sender's
//!    tracked state and the packet's type, the proxy applies one of the
//!    paper's packet-level basic attacks: *drop*, *duplicate*, *delay*,
//!    *batch*, *reflect*, or *lie* (generic field mutation via the header
//!    format spec).
//! 3. **Off-path injection** — *inject* and *hitseqwindow* strategies spoof
//!    packets into the target connection when the tracked endpoint enters
//!    the strategy's state, without reading any connection secrets the
//!    off-path attacker would not know.
//!
//! Protocol specifics (packet classification, header construction, port
//! swapping) are provided by a [`ProtocolAdapter`]; adapters for TCP and
//! DCCP are built in, and a new two-party protocol needs only a new
//! adapter, header spec, and dot machine — exactly the paper's porting
//! story.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod adapter;
mod json;
mod proxy;
mod strategy;

pub use adapter::{DccpAdapter, InjectContext, ProtocolAdapter, TcpAdapter};
pub use proxy::{
    AttackProxy, Observation, PacketFirstSeen, ProxyConfig, ProxyReport, StateFirstSeen,
    StateTimeline,
};
pub use strategy::{
    BasicAttack, Endpoint, InjectDirection, InjectionAttack, SeqChoice, Strategy, StrategyKind,
};
