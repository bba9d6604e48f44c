use std::any::Any;

use rand::rngs::SmallRng;

use crate::packet::{Addr, Packet};
use crate::sim::{Command, NodeId};
use crate::time::{SimDuration, SimTime};

/// Handle for a pending timer, used to cancel it. Carries the timer's fire
/// time for the queue's one purge rule: a cancellation record is dropped
/// once a run passes that time, since its entry can no longer pop (it
/// popped as a ghost, or the cancel came after the fire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    pub(crate) id: u64,
    pub(crate) at: SimTime,
}

/// A protocol endpoint (or any other process) running on a simulated node.
///
/// Agents are the systems under test: the TCP and DCCP hosts implement this
/// trait. All interaction with the network happens through the [`Ctx`]
/// passed to each callback; agents never touch the simulator directly, which
/// keeps them deterministic and single-threaded.
///
/// The `Any` supertrait lets the executor downcast agents after a run to
/// extract metrics (the simulated equivalent of the paper's executor
/// querying the OS with `netstat`). The `Send + Sync` supertraits let a
/// paused simulator snapshot be shared across executor worker threads, which
/// fork their own copies from it.
pub trait Agent: Any + Send + Sync {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a packet addressed to this node arrives.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet);

    /// Called when a timer set with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Deep-clones this agent as a boxed trait object, for
    /// [`Simulator::fork`](crate::Simulator::fork). The default returns
    /// `None` (not forkable); production agents override it with
    /// `Some(Box::new(self.clone()))`.
    fn boxed_clone(&self) -> Option<Box<dyn Agent>> {
        None
    }
}

/// The agent's window into the simulator during a callback.
///
/// Operations are buffered and applied when the callback returns, keeping
/// event application atomic per callback.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) commands: &'a mut Vec<Command>,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) next_timer: &'a mut u64,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A transport address on this node.
    pub fn addr(&self, port: u16) -> Addr {
        Addr::new(self.node, port)
    }

    /// Sends a packet; it is routed from this node toward `packet.dst`.
    pub fn send(&mut self, packet: Packet) {
        self.commands.push(Command::Send {
            from: self.node,
            packet,
        });
    }

    /// Sets a one-shot timer `after` from now; `tag` is returned to
    /// [`Agent::on_timer`].
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerHandle {
        let handle = TimerHandle {
            id: *self.next_timer,
            at: self.now + after,
        };
        *self.next_timer += 1;
        self.commands.push(Command::SetTimer {
            node: self.node,
            handle,
            tag,
        });
        handle
    }

    /// Sets a one-shot timer at an absolute time (clamped to no earlier
    /// than now); `tag` is returned to [`Agent::on_timer`]. Unlike
    /// [`set_timer`](Ctx::set_timer), this cannot overflow near
    /// [`SimTime::MAX`], so it is the right way to arm "never"-style
    /// sentinel timers.
    pub fn set_timer_at(&mut self, at: SimTime, tag: u64) -> TimerHandle {
        let handle = TimerHandle {
            id: *self.next_timer,
            at: at.max(self.now),
        };
        *self.next_timer += 1;
        self.commands.push(Command::SetTimer {
            node: self.node,
            handle,
            tag,
        });
        handle
    }

    /// Cancels a timer; harmless if it already fired.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.commands.push(Command::CancelTimer { handle });
    }

    /// The node's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_buffers_commands() {
        let mut commands = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next_timer = 0;
        let mut ctx = Ctx {
            now: SimTime::from_secs(1),
            node: NodeId::from_index(0),
            commands: &mut commands,
            rng: &mut rng,
            next_timer: &mut next_timer,
        };
        let h = ctx.set_timer(SimDuration::from_millis(10), 42);
        ctx.cancel_timer(h);
        assert_eq!(commands.len(), 2);
        match &commands[0] {
            Command::SetTimer { handle, tag, .. } => {
                assert_eq!(handle.at, SimTime::from_millis(1_010));
                assert_eq!(*tag, 42);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn timer_handles_are_unique() {
        let mut commands = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next_timer = 0;
        let mut ctx = Ctx {
            now: SimTime::ZERO,
            node: NodeId::from_index(0),
            commands: &mut commands,
            rng: &mut rng,
            next_timer: &mut next_timer,
        };
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
    }
}
