//! Deterministic discrete-event network emulator.
//!
//! SNAKE's executors run each attack scenario on an emulated network: the
//! paper uses NS-3 tying together KVM virtual machines in a dumbbell
//! topology, with the attack proxy spliced into one client's access link.
//! This crate is the reproduction's substitute substrate: a single-threaded,
//! seeded discrete-event simulator providing
//!
//! * nodes running protocol [`Agent`]s (the systems under test),
//! * duplex [`links`](LinkSpec) with bandwidth, propagation delay, and
//!   finite tail-drop queues (the bottleneck that congestion control reacts
//!   to),
//! * static shortest-path routing,
//! * a [`Tap`] hook on any link — the attach point for the attack proxy,
//!   mirroring the paper's modified NS-3 tap-bridge, and
//! * scripted control actions (start/stop applications mid-run).
//!
//! Determinism is a feature the paper's testbed does not have: identical
//! `(topology, agents, seed)` produce identical packet traces, which makes
//! the repeatability re-test exact and the whole campaign reproducible.
//!
//! # Examples
//!
//! Two nodes exchanging one packet over a 10 Mbit/s link:
//!
//! ```
//! use snake_netsim::{Agent, Ctx, LinkSpec, Packet, Protocol, SimDuration, SimTime, Simulator};
//!
//! struct Pinger { peer: snake_netsim::NodeId, got: bool }
//! impl Agent for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         let pkt = Packet::new(
//!             ctx.addr(7), snake_netsim::Addr::new(self.peer, 7),
//!             Protocol::Other(99), vec![0u8; 8], 100,
//!         );
//!         ctx.send(pkt);
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) { self.got = true; }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node("a");
//! let b = sim.add_node("b");
//! sim.set_agent(a, Pinger { peer: b, got: false });
//! sim.set_agent(b, Pinger { peer: a, got: false });
//! sim.add_link(a, b, LinkSpec::new(10_000_000, SimDuration::from_millis(5), 64));
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.agent::<Pinger>(b).unwrap().got);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod agent;
mod arena;
mod fxhash;
mod impair;
mod link;
mod packet;
mod sched;
mod sim;
mod smallbuf;
mod tap;
mod time;
mod topology;
mod trace;

pub use agent::{Agent, Ctx, TimerHandle};
pub use fxhash::{FxBuildHasher, FxHashMap};
pub use impair::{preset_names, FlapSpec, Impairment, PPM};
pub use link::{Aqm, ChannelStats, LinkId, LinkSpec};
pub use packet::{Addr, Packet, Protocol};
pub use sim::{NodeId, SimStats, Simulator};
pub use smallbuf::HeaderBuf;
pub use tap::{Tap, TapCtx};
pub use time::{SimDuration, SimTime};
pub use topology::{
    BuiltTopology, Dumbbell, DumbbellSpec, NodeRole, TopoLink, TopoNode, TopologyGen,
    TopologyGenSpec, TopologyKind, TopologyLayout,
};
pub use trace::{Trace, TraceRecord};
